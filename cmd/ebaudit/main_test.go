package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// writeDataDir materializes a fake -data directory from file name -> CSV
// content.
func writeDataDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goodLogCSV = "Lid:int,Date:date,User:int,Patient:int\n1,1,100,7\n2,2,101,8\n"

// TestRunDataErrors is the table-driven malformed-input suite: every way a
// -data directory can be broken must surface as a descriptive error from
// run, never as a relation/query panic or a zero exit.
func TestRunDataErrors(t *testing.T) {
	cases := []struct {
		name    string
		files   map[string]string // nil means point -data at a nonexistent path
		wantSub string
	}{
		{
			name:    "missing directory",
			files:   nil,
			wantSub: "reading -data directory",
		},
		{
			name:    "no csv tables",
			files:   map[string]string{"README.txt": "not a table"},
			wantSub: "no .csv tables found",
		},
		{
			name:    "missing Log table",
			files:   map[string]string{"Appointments.csv": "Patient:int,Date:date,Doctor:int\n7,1,3\n"},
			wantSub: "has no Log table",
		},
		{
			name:    "missing required column",
			files:   map[string]string{"Log.csv": "Lid:int,Date:date,User:int\n1,1,100\n"},
			wantSub: `lacks required column "Patient"`,
		},
		{
			name:    "header cell without kind",
			files:   map[string]string{"Log.csv": "Lid,Date:date,User:int,Patient:int\n1,1,100,7\n"},
			wantSub: "lacks a :kind suffix",
		},
		{
			name:    "unknown column kind",
			files:   map[string]string{"Log.csv": "Lid:uuid,Date:date,User:int,Patient:int\n1,1,100,7\n"},
			wantSub: `unknown kind "uuid"`,
		},
		{
			name:    "short csv row",
			files:   map[string]string{"Log.csv": "Lid:int,Date:date,User:int,Patient:int\n1,1,100\n"},
			wantSub: "line 2 has 3 fields, want 4",
		},
		{
			name:    "non-numeric int cell",
			files:   map[string]string{"Log.csv": "Lid:int,Date:date,User:int,Patient:int\nabc,1,100,7\n"},
			wantSub: "line 2 column Lid",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "nonexistent")
			if tc.files != nil {
				dir = writeDataDir(t, tc.files)
			}
			var stdout, stderr bytes.Buffer
			err := run([]string{"-data", dir, "summary"}, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run succeeded on %s; stdout:\n%s", tc.name, stdout.String())
			}
			if errors.Is(err, errUsage) {
				t.Fatalf("malformed data reported as usage error: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestRunUsageErrors pins command-line misuse to errUsage (exit status 2).
func TestRunUsageErrors(t *testing.T) {
	for _, argv := range [][]string{
		{},
		{"frobnicate"},
		{"-scale", "galactic", "summary"},
		{"-not-a-flag", "summary"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(argv, &stdout, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want usage error", argv, err)
		}
	}
	// An unknown subcommand is a usage error before anything is generated or
	// loaded, so neither a bad -scale nor a missing -data directory is
	// reported in its place.
	for _, argv := range [][]string{
		{"-scale", "bogus", "nosuch"},
		{"-data", filepath.Join(t.TempDir(), "nonexistent"), "nosuch"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(argv, &stdout, &stderr); !errors.Is(err, errUsage) || !strings.HasPrefix(stderr.String(), "usage: ebaudit") {
			t.Errorf("run(%v) = %v with stderr %q, want the usage error and text", argv, err, stderr.String())
		}
	}
}

// TestRunDataRoundTrip exports a generated hospital, reloads it via -data,
// and checks both a materialized audit and the NDJSON -stream mode: the
// stream must carry one valid JSON report per log row, in log order.
func TestRunDataRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v\nstderr: %s", err, stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-data", dir, "audit"}, &stdout, &stderr); err != nil {
		t.Fatalf("audit over reloaded data: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "batch-audited") {
		t.Fatalf("audit output missing summary:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-data", dir, "audit", "-stream", "-v"}, &stdout, &stderr); err != nil {
		t.Fatalf("audit -stream: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "streamed") || !strings.Contains(stderr.String(), "mask cache:") {
		t.Errorf("stream summary missing from stderr:\n%s", stderr.String())
	}

	lines := 0
	prevLid := int64(-1)
	sc := bufio.NewScanner(bytes.NewReader(stdout.Bytes()))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var rep struct {
			Lid          int64  `json:"lid"`
			Date         string `json:"date"`
			User         string `json:"user"`
			Patient      string `json:"patient"`
			UserName     string `json:"userName"`
			Explained    bool   `json:"explained"`
			Explanations []struct {
				Template string `json:"template"`
				Length   int    `json:"length"`
				Text     string `json:"text"`
			} `json:"explanations"`
		}
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("line %d is not valid NDJSON: %v\n%s", lines+1, err, sc.Text())
		}
		if rep.Lid <= prevLid {
			t.Fatalf("NDJSON out of log order: lid %d after %d", rep.Lid, prevLid)
		}
		if rep.Explained != (len(rep.Explanations) > 0) {
			t.Fatalf("lid %d: explained=%v with %d explanations", rep.Lid, rep.Explained, len(rep.Explanations))
		}
		prevLid = rep.Lid
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("stream produced no reports")
	}
}

// TestRunFlagValidation pins the flag-misuse cases that must exit 1 with a
// descriptive error (not a usage error, not a panic, not a silent default):
// a worker count below 1, an empty entry in the -data list, a federated
// shard count below 1 and a mining length below 1.
func TestRunFlagValidation(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	cases := []struct {
		name    string
		argv    []string
		wantSub string
	}{
		{"j zero", []string{"-j", "0", "summary"}, "-j must be at least 1"},
		{"j negative", []string{"-j", "-4", "summary"}, "-j must be at least 1"},
		{"empty data entry", []string{"-data", dir + ",,", "summary"}, "empty entry"},
		{"shards zero", []string{"audit", "-shards", "0"}, "-shards must be at least 1"},
		{"shards negative", []string{"audit", "-shards", "-1"}, "-shards must be at least 1"},
		{"mine M zero", []string{"mine", "-algo", "bridge-2", "-M", "0"}, "-M must be at least 1"},
		{"mine M zero over a store", []string{"-data", dir, "-store", filepath.Join(dir, "store"), "mine", "-algo", "bridge-2", "-M", "0"}, "-M must be at least 1"},
		{"shards with federated data", []string{"-data", dir + "," + dir, "audit", "-shards", "2"}, "cannot be combined"},
		{"audit n negative", []string{"audit", "-n", "-1"}, "audit -n must be at least 0"},
		{"unexplained n negative", []string{"unexplained", "-n", "-5"}, "unexplained -n must be at least 0"},
		{"groups depth negative", []string{"groups", "-depth", "-1"}, "groups -depth must be at least 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.argv, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%v) succeeded", tc.argv)
			}
			if errors.Is(err, errUsage) {
				t.Fatalf("run(%v) reported a usage error (exit 2), want a validation error (exit 1)", tc.argv)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestMineRejectsNonsenseParameters pins that mine exits 1, before it
// mines, on a support fraction that is NaN or outside [0, 1] and on an
// algorithm name with trailing input after "bridge-N".
func TestMineRejectsNonsenseParameters(t *testing.T) {
	cases := []struct {
		argv    []string
		wantSub string
	}{
		{[]string{"-scale", "tiny", "mine", "-s", "-1"}, "SupportFraction must be in [0, 1]"},
		{[]string{"-scale", "tiny", "mine", "-s", "NaN"}, "SupportFraction must be in [0, 1]"},
		{[]string{"-scale", "tiny", "mine", "-s", "5"}, "SupportFraction must be in [0, 1]"},
		{[]string{"-scale", "tiny", "mine", "-algo", "bridge-2abc"}, "unknown algorithm"},
		{[]string{"-scale", "tiny", "mine", "-algo", "bridge-2x"}, "unknown algorithm"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.argv, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%v) succeeded:\n%s", tc.argv, stdout.String())
			continue
		}
		if errors.Is(err, errUsage) {
			t.Errorf("run(%v) reported a usage error (exit 2), want a validation error (exit 1)", tc.argv)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("run(%v): error %q does not mention %q", tc.argv, err, tc.wantSub)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed %q before failing", tc.argv, stdout.String())
		}
	}
}

// splitExportedLog rewrites an exported dataset as two shard directories:
// every table is copied to both, except the Log, whose rows are split at
// the given fraction — the multi-deployment layout -data dirA,dirB loads.
func splitExportedLog(t *testing.T, exportDir string, frac float64) (string, string) {
	t.Helper()
	entries, err := os.ReadDir(exportDir)
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	dirA := filepath.Join(base, "east")
	dirB := filepath.Join(base, "west")
	for _, dir := range []string{dirA, dirB} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(exportDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != "Log.csv" {
			for _, dir := range []string{dirA, dirB} {
				if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		lines := strings.SplitAfter(string(data), "\n")
		if lines[len(lines)-1] == "" {
			lines = lines[:len(lines)-1]
		}
		header, rows := lines[0], lines[1:]
		cut := int(float64(len(rows)) * frac)
		writeShard := func(dir string, shard []string) {
			content := header + strings.Join(shard, "")
			if err := os.WriteFile(filepath.Join(dir, "Log.csv"), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		writeShard(dirA, rows[:cut])
		writeShard(dirB, rows[cut:])
	}
	return dirA, dirB
}

// auditGolden builds what plain `audit -n 100000` prints from the output of
// `unexplained -n 100000` over the same data: the headline numbers, then
// every unexplained access in audit's layout (the patient name unpadded,
// no ground truth). The first line's timing figures read "T" and "R".
func auditGolden(t *testing.T, unexplained, federated, across string) string {
	t.Helper()
	lines := strings.SplitAfter(unexplained, "\n")
	var bad, total int
	if _, err := fmt.Sscanf(lines[0], "%d of %d accesses unexplained", &bad, &total); err != nil {
		t.Fatalf("unexplained header %q: %v", lines[0], err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%sbatch-audited %d accesses%s in T (R accesses/sec, 2 workers)\n", federated, total, across)
	fmt.Fprintf(&b, "explained: %d (%.2f%%), unexplained: %d\n", total-bad, 100*float64(total-bad)/float64(total), bad)
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		access, patient, ok := strings.Cut(strings.TrimSuffix(line, "\n"), " -> ")
		if !ok {
			t.Fatalf("unexplained row %q has no patient", line)
		}
		patient, _, _ = strings.Cut(patient, " (ground truth: ")
		fmt.Fprintf(&b, "%s -> %s\n", access, strings.TrimRight(patient, " "))
	}
	return b.String()
}

// timing matches the figures of audit's first line that vary run to run.
var timing = regexp.MustCompile(`in \S+ \(\S+ accesses/sec`)

// TestFederatedStreamByteIdentical is the CLI-level federated differential:
// the NDJSON emitted by audit -stream must be byte-identical across (a) the
// single engine, (b) audit -shards K partitioning of the same log, and (c)
// a multi-directory federation of the log split across two deployments.
// Plain audit, which answers from the masks, prints the unexplained
// subcommand's rows (auditGolden) over each of them and over the generated
// dataset.
func TestFederatedStreamByteIdentical(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}

	streamOut := func(argv ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run(argv, &stdout, &stderr); err != nil {
			t.Fatalf("run(%v): %v\nstderr: %s", argv, err, stderr.String())
		}
		return stdout.String()
	}

	want := streamOut("-data", dir, "audit", "-stream")
	if want == "" {
		t.Fatal("single-engine stream is empty")
	}
	for _, k := range []string{"1", "2", "4"} {
		if got := streamOut("-data", dir, "audit", "-stream", "-shards", k); got != want {
			t.Errorf("audit -shards %s stream differs from the single-engine stream", k)
		}
	}

	dirA, dirB := splitExportedLog(t, dir, 0.4)
	if got := streamOut("-data", dirA+","+dirB, "audit", "-stream"); got != want {
		t.Error("multi-directory federated stream differs from the single-engine stream")
	}

	for _, c := range []struct {
		name             string
		data, shards     []string
		federated, cross string
	}{
		{"K=1", []string{"-data", dir}, nil, "", ""},
		{"-shards 2", []string{"-data", dir}, []string{"-shards", "2"}, "federated ", " across 2 shards"},
		{"two-directory Join", []string{"-data", dirA + "," + dirB}, nil, "federated ", " across 2 shards"},
		{"generated", nil, nil, "", ""},
	} {
		global := append([]string{"-j", "2"}, c.data...)
		golden := auditGolden(t, streamOut(append(global, "unexplained", "-n", "100000")...), c.federated, c.cross)
		got := streamOut(append(append(global, "audit", "-n", "100000"), c.shards...)...)
		if got = timing.ReplaceAllString(got, "in T (R accesses/sec"); got != golden {
			t.Errorf("%s: plain audit printed\n%s\nwant\n%s", c.name, got, golden)
		}
	}

	// The materialized federated audit agrees on the headline numbers and
	// reports per-shard internals under -v.
	var fedOut, fedErr bytes.Buffer
	if err := run([]string{"-data", dir, "audit", "-shards", "2", "-v"}, &fedOut, &fedErr); err != nil {
		t.Fatalf("federated audit: %v", err)
	}
	for _, sub := range []string{"federated batch-audited", "across 2 shards", "plan cache (all shards)", "shard0:", "shard1:"} {
		if !strings.Contains(fedOut.String(), sub) {
			t.Errorf("federated audit output missing %q:\n%s", sub, fedOut.String())
		}
	}
	// Nothing is rendered, so no instance memo was consulted.
	if strings.Contains(fedOut.String(), "instance memo:") {
		t.Errorf("plain audit -v reports an instance memo:\n%s", fedOut.String())
	}
}

// TestFederatedSubcommands smoke-tests the rest of the surface over a
// multi-directory federation: summary, unexplained, mine, templates, and
// patient answer over the merged log, while export is refused.
func TestFederatedSubcommands(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	dirA, dirB := splitExportedLog(t, dir, 0.5)
	data := dirA + "," + dirB

	runOK := func(argv ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run(argv, &stdout, &stderr); err != nil {
			t.Fatalf("run(%v): %v\nstderr: %s", argv, err, stderr.String())
		}
		return stdout.String()
	}

	if out := runOK("-data", data, "summary"); !strings.Contains(out, "federation: 2 shards") ||
		!strings.Contains(out, "east:") || !strings.Contains(out, "west:") {
		t.Errorf("federated summary:\n%s", out)
	}
	if out := runOK("-data", data, "unexplained", "-n", "3"); !strings.Contains(out, "accesses unexplained") {
		t.Errorf("federated unexplained:\n%s", out)
	}
	if out := runOK("-data", data, "mine", "-M", "3"); !strings.Contains(out, "mined") {
		t.Errorf("federated mine:\n%s", out)
	}
	if out := runOK("-data", data, "templates"); !strings.Contains(out, "SELECT") {
		t.Errorf("federated templates:\n%s", out)
	}
	// Both shard directories carry identical Groups.csv copies (the export
	// wrote the single engine's table to each), so the Join reuses them
	// without retraining — and, like a single-engine -data load that reuses a
	// Groups table, the depth views of the training hierarchy are unavailable.
	var grpBuf bytes.Buffer
	if err := run([]string{"-data", data, "groups"}, &grpBuf, &grpBuf); err == nil ||
		!strings.Contains(err.Error(), "reused as-is") {
		t.Errorf("federated groups over reused tables: err = %v, want the reuse explanation", err)
	}

	var exBuf bytes.Buffer
	err := run([]string{"-data", data, "export", "-dir", t.TempDir()}, &exBuf, &exBuf)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("federated export: %v", err)
	}
}

// TestSplitStatsCountOneEngine pins that a Split federation is one engine
// counted once: at -j 1, the plan-cache, mask-cache and instance-memo
// numbers of `audit -stream -shards 4 -v` equal the single engine's, not
// four copies of them.
func TestSplitStatsCountOneEngine(t *testing.T) {
	stats := func(shards bool) [][]string {
		t.Helper()
		args := []string{"-j", "1", "audit", "-stream", "-v"}
		planRe := regexp.MustCompile(`plan cache: (\d+) hits, (\d+) misses`)
		maskRe := regexp.MustCompile(`mask cache: (\d+) hits, (\d+) recomputes, (\d+) incremental extensions`)
		if shards {
			args = append(args, "-shards", "4")
			planRe = regexp.MustCompile(`plan cache \(all shards\): (\d+) hits, (\d+) misses`)
			maskRe = regexp.MustCompile(`mask cache: (\d+) hits, (\d+) recomputes, (\d+) extensions`)
		}
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v\nstderr: %s", args, err, stderr.String())
		}
		var out [][]string
		for _, re := range []*regexp.Regexp{planRe, maskRe, regexp.MustCompile(`instance memo: (\d+) hits, (\d+) misses`)} {
			m := re.FindStringSubmatch(stderr.String())
			if m == nil {
				t.Fatalf("%v: no %q line in stderr:\n%s", args, re, stderr.String())
			}
			out = append(out, m[1:])
		}
		return out
	}
	if single, split := stats(false), stats(true); !reflect.DeepEqual(split, single) {
		t.Errorf("plan/mask/memo counters at -shards 4 = %v, want the single engine's %v", split, single)
	}
}

// TestGroupsDeterministic pins the groups listing's order: departments tied
// on member count print by code, so reruns over one seed byte-match.
func TestGroupsDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 5; i++ {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"groups", "-depth", "3"}, &stdout, &stderr); err != nil {
			t.Fatalf("groups: %v\nstderr: %s", err, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
		} else if stdout.String() != first {
			t.Fatalf("groups run %d printed different output:\n%s\nvs\n%s", i, stdout.String(), first)
		}
	}
}
