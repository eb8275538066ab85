package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// truncatedExport copies an exported dataset into a fresh directory with
// the Log truncated to its first frac rows, returning the directory, the
// full Log.csv content, and the total row count — the fixture for follow
// mode, whose -data directory later grows back to the full log.
func truncatedExport(t *testing.T, exportDir string, frac float64) (dir string, fullLog []byte, total int) {
	t.Helper()
	dir = t.TempDir()
	entries, err := os.ReadDir(exportDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(exportDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != "Log.csv" {
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		fullLog = data
		lines := strings.SplitAfter(string(data), "\n")
		if lines[len(lines)-1] == "" {
			lines = lines[:len(lines)-1]
		}
		header, rows := lines[0], lines[1:]
		total = len(rows)
		cut := int(float64(total) * frac)
		content := header + strings.Join(rows[:cut], "")
		if err := os.WriteFile(filepath.Join(dir, "Log.csv"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if fullLog == nil || total == 0 {
		t.Fatal("export has no Log.csv rows")
	}
	return dir, fullLog, total
}

// TestFollowByteIdentical is the CLI incremental differential: audit
// -follow over a -data directory whose Log grows from 90% to 100% of the
// dataset must emit, across its initial batch plus appended batches, NDJSON
// byte-identical to one audit -stream over the final log — across dataset
// seeds and worker counts. Each log rewrite is atomic (temp file + rename),
// as a real exporter would append.
func TestFollowByteIdentical(t *testing.T) {
	for _, seed := range []string{"1", "2", "3"} {
		exportDir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-seed", seed, "export", "-dir", exportDir}, &stdout, &stderr); err != nil {
			t.Fatalf("seed %s export: %v", seed, err)
		}

		var want bytes.Buffer
		var wantErr bytes.Buffer
		if err := run([]string{"-data", exportDir, "audit", "-stream"}, &want, &wantErr); err != nil {
			t.Fatalf("seed %s audit -stream: %v\nstderr: %s", seed, err, wantErr.String())
		}
		if want.Len() == 0 {
			t.Fatal("reference stream is empty")
		}

		for _, j := range []string{"1", "4"} {
			dir, fullLog, total := truncatedExport(t, exportDir, 0.9)

			// Grow the log back to full size shortly after follow starts, in
			// two steps: the second batch is rendered by the enumerators the
			// auditor's cursor compiled for the first, over a log that grew
			// in between.
			lines := bytes.SplitAfter(fullLog, []byte("\n"))
			partial := bytes.Join(lines[:1+total*95/100], nil)
			go func() {
				for _, content := range [][]byte{partial, fullLog} {
					time.Sleep(30 * time.Millisecond)
					tmp := filepath.Join(dir, ".Log.csv.tmp")
					if err := os.WriteFile(tmp, content, 0o644); err != nil {
						t.Errorf("writing grown log: %v", err)
						return
					}
					if err := os.Rename(tmp, filepath.Join(dir, "Log.csv")); err != nil {
						t.Errorf("renaming grown log: %v", err)
						return
					}
				}
			}()

			var got, gotErr bytes.Buffer
			err := run([]string{"-data", dir, "-j", j, "audit", "-follow",
				"-poll", "5ms", "-follow-rows", fmt.Sprint(total), "-v"}, &got, &gotErr)
			if err != nil {
				t.Fatalf("seed %s -j %s audit -follow: %v\nstderr: %s", seed, j, err, gotErr.String())
			}
			if got.String() != want.String() {
				t.Errorf("seed %s -j %s: follow NDJSON differs from one-shot stream (%d vs %d bytes)",
					seed, j, got.Len(), want.Len())
			}
			if !strings.Contains(gotErr.String(), "incremental extensions") {
				t.Errorf("seed %s -j %s: follow -v missing mask-cache counters:\n%s", seed, j, gotErr.String())
			}
		}
	}
}

// TestFollowTornRow pins the torn-tail contract of follow mode: a final
// log row appended in two separate writes across polls must stay invisible
// until its terminating newline lands, then be picked up normally. The
// first write deliberately ends one byte short of the row's newline, so the
// torn tail is a syntactically valid CSV record with a truncated final
// field — the worst case, which a parser ingesting unterminated lines
// would append as a wrong row (and a fatal-error treatment would abort on
// the harmless intermediate state). The concatenated NDJSON must be
// byte-identical to a one-shot stream over the final log, with no poll
// errors reported.
func TestFollowTornRow(t *testing.T) {
	exportDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", exportDir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	var want, wantErr bytes.Buffer
	if err := run([]string{"-data", exportDir, "audit", "-stream"}, &want, &wantErr); err != nil {
		t.Fatalf("audit -stream: %v\nstderr: %s", err, wantErr.String())
	}

	dir, fullLog, total := truncatedExport(t, exportDir, 0.95)
	logPath := filepath.Join(dir, "Log.csv")
	cur, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	suffix := fullLog[len(cur):]
	if len(suffix) < 4 || suffix[len(suffix)-1] != '\n' {
		t.Fatalf("unexpected suffix %q", suffix)
	}
	// First write: the whole growth except the final row's last value byte
	// and newline. The tail left torn is the final row with its last field
	// one digit short — parseable, but wrong.
	torn := suffix[:len(suffix)-2]
	rest := suffix[len(suffix)-2:]
	if b := torn[len(torn)-1]; b < '0' || b > '9' {
		t.Logf("final field is a single byte; torn tail %q is malformed rather than truncated-valid", tailRow(torn))
	}

	go func() {
		time.Sleep(30 * time.Millisecond) // let the initial catch-up finish
		if err := appendFile(logPath, torn); err != nil {
			t.Errorf("first append: %v", err)
			return
		}
		time.Sleep(25 * time.Millisecond) // several polls observe the torn tail
		if err := appendFile(logPath, rest); err != nil {
			t.Errorf("second append: %v", err)
		}
	}()

	var got, gotErr bytes.Buffer
	err = run([]string{"-data", dir, "audit", "-follow",
		"-poll", "5ms", "-follow-rows", fmt.Sprint(total)}, &got, &gotErr)
	if err != nil {
		t.Fatalf("audit -follow: %v\nstderr: %s", err, gotErr.String())
	}
	if got.String() != want.String() {
		t.Errorf("follow NDJSON differs from one-shot stream (%d vs %d bytes)", got.Len(), want.Len())
	}
	if strings.Contains(gotErr.String(), "follow poll") {
		t.Errorf("torn tail surfaced as a poll error:\n%s", gotErr.String())
	}
}

// appendFile appends data to the file at path in place, as a log writer
// extending a live CSV would.
func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tailRow returns the content after the last newline of b, for messages.
func tailRow(b []byte) []byte {
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// TestFollowValidation pins the flag surface: -follow refuses -stream,
// federated topologies, generated datasets, and non-positive poll
// intervals.
func TestFollowValidation(t *testing.T) {
	exportDir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"export", "-dir", exportDir}, &buf, &buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	cases := []struct {
		argv []string
		want string
	}{
		{[]string{"audit", "-follow"}, "requires -data"},
		{[]string{"-data", exportDir, "audit", "-follow", "-stream"}, "drop -stream"},
		{[]string{"-data", exportDir, "audit", "-follow", "-shards", "2"}, "single engine"},
		{[]string{"-data", exportDir + "," + exportDir, "audit", "-follow"}, "single engine"},
		{[]string{"-data", exportDir, "audit", "-follow", "-poll", "0s"}, "must be positive"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.argv, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error = %v, want containing %q", tc.argv, err, tc.want)
		}
	}
}
