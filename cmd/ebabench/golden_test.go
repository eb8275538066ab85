package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.txt from this build")

var (
	// preparedLine is the dataset header; its wall time is the only
	// non-deterministic token on it.
	preparedLine = regexp.MustCompile(`^(prepared \S+ dataset in )\S+(:.*)$`)
	// tookLine is the per-experiment timing line.
	tookLine = regexp.MustCompile(`^  \[\S+ took \S+\]$`)
)

// scienceOnly strips every timing token from ebabench's stdout: the
// dataset header's wall time, each experiment's "[name took d]" line, and
// Figure 13, whose rows are all mining timings. What remains is a pure
// function of the scale and seed.
func scienceOnly(out string) string {
	var b strings.Builder
	for _, block := range strings.Split(out, "\n\n") {
		if strings.HasPrefix(block, "Figure 13:") {
			continue
		}
		for _, line := range strings.Split(block, "\n") {
			if tookLine.MatchString(line) {
				continue
			}
			line = preparedLine.ReplaceAllString(line, "${1}<t>${2}")
			b.WriteString(line)
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}

// TestScienceGoldens pins every figure and table of the evaluation whose
// content is not a timing — Figures 6–12, the decorated Figure 12, Figure
// 14, Table 1 and the headline numbers — at Tiny and Small, seed 1, to
// testdata/golden_<scale>.txt. An engine change must not move a recall,
// precision or template count; -update-golden rewrites the files (only do
// that on purpose).
func TestScienceGoldens(t *testing.T) {
	for _, scale := range []string{"tiny", "small"} {
		t.Run(scale, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run([]string{"-scale", scale, "-seed", "1"}, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v (stderr %q)", err, stderr.String())
			}
			got := scienceOnly(stdout.String())
			path := filepath.Join("testdata", "golden_"+scale+".txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update-golden to create it): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from %s:\n%s", scale, path, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the lines that differ between want and got, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
