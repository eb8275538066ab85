package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
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
			done := make(chan struct{})
			go func() {
				defer close(done)
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
			<-done // the writer reports its own failures before the test can end
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

	done := make(chan struct{})
	go func() {
		defer close(done)
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
	<-done
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
// federated topologies, generated datasets, non-positive poll intervals
// and a negative -follow-rows.
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
		{[]string{"-data", exportDir, "audit", "-follow", "-follow-rows", "-1"}, "audit -follow-rows must be at least 0"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.argv, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error = %v, want containing %q", tc.argv, err, tc.want)
		}
	}
}

// TestFollowRejectsNonAppend pins follow mode's append-only contract: once
// following has started and a poll has appended a row, a Log.csv truncated
// below the audited rows, or rewritten under a header naming other
// columns, ends the session with the named error once the grace window is
// spent — and no row is appended on the way, so stdout holds exactly the
// reports of the rows audited before the rewrite.
func TestFollowRejectsNonAppend(t *testing.T) {
	exportDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", exportDir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	cases := []struct {
		name    string
		rewrite func(log []byte) []byte
		want    string
	}{
		{"truncated", func(log []byte) []byte {
			lines := bytes.SplitAfter(log, []byte("\n"))
			return bytes.Join(lines[:len(lines)/2], nil)
		}, "shrank"},
		{"new header", func(log []byte) []byte {
			header, rows, _ := bytes.Cut(log, []byte("\n"))
			return append(append(bytes.Replace(header, []byte("Lid:"), []byte("LogId:"), 1), '\n'), rows...)
		}, "changed columns"},
	}
	for _, tc := range cases {
		dir, fullLog, total := truncatedExport(t, exportDir, 0.9)
		logPath := filepath.Join(dir, "Log.csv")
		start, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		// One row is appended while following, so that the rewrite meets a
		// session whose polls have already located and advanced the offset.
		row := fullLog[len(start) : len(start)+bytes.IndexByte(fullLog[len(start):], '\n')+1]
		grown := append(append([]byte(nil), start...), row...)
		rewritten := tc.rewrite(grown)
		if bytes.Equal(rewritten, grown) {
			t.Fatalf("%s: the rewrite left Log.csv as it was", tc.name)
		}
		if err := os.WriteFile(logPath, grown, 0o644); err != nil {
			t.Fatal(err)
		}
		var want, wantErr bytes.Buffer
		if err := run([]string{"-data", dir, "audit", "-stream"}, &want, &wantErr); err != nil {
			t.Fatalf("%s: audit -stream: %v\nstderr: %s", tc.name, err, wantErr.String())
		}
		if err := os.WriteFile(logPath, start, 0o644); err != nil {
			t.Fatal(err)
		}

		followCh, appendedCh := make(chan struct{}), make(chan struct{})
		gotErr := &markerWriter{markers: map[string]chan struct{}{"following ": followCh, "appended 1 rows": appendedCh}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			<-followCh
			if err := appendFile(logPath, row); err != nil {
				t.Errorf("%s: appending a row: %v", tc.name, err)
				return
			}
			<-appendedCh
			tmp := filepath.Join(dir, ".Log.csv.tmp")
			if err := os.WriteFile(tmp, rewritten, 0o644); err != nil {
				t.Errorf("%s: writing rewritten log: %v", tc.name, err)
				return
			}
			if err := os.Rename(tmp, logPath); err != nil {
				t.Errorf("%s: renaming rewritten log: %v", tc.name, err)
			}
		}()

		var got bytes.Buffer
		err = run([]string{"-data", dir, "audit", "-follow",
			"-poll", "5ms", "-grace", "50ms", "-follow-rows", fmt.Sprint(total)}, &got, gotErr)
		select {
		case <-appendedCh:
			<-done
		default: // the session ended before appending the row; the checks below say how
		}
		if err == nil || !strings.Contains(err.Error(), "follow poll failing") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want a grace-window failure naming %q\nstderr: %s", tc.name, err, tc.want, gotErr.String())
		}
		if got.String() != want.String() {
			t.Errorf("%s: follow wrote %d bytes of NDJSON, want the %d of the rows before the rewrite",
				tc.name, got.Len(), want.Len())
		}
	}
}

// TestFollowPollCostFlat pins that a follow poll reads only what was
// appended since the last one: over a log of 1,024 rows and one of 16,384,
// a poll that picks up 64 appended rows allocates about as much. (Parsing
// the whole file on every poll allocates in proportion to the log.)
func TestFollowPollCostFlat(t *testing.T) {
	const batch, polls = 64, 8
	row := func(w io.Writer, i int) {
		fmt.Fprintf(w, "%d,%d,%d,%d\n", i+1, i/100, 10001+i%37, 1+i%501)
	}
	bytesPerPoll := func(base int) uint64 {
		var csv bytes.Buffer
		csv.WriteString("Lid:int,Date:date,User:int,Patient:int\n")
		for i := 0; i < base; i++ {
			row(&csv, i)
		}
		path := filepath.Join(t.TempDir(), "Log.csv")
		if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := relation.Load("Log", bytes.NewReader(csv.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		tail := &logTail{path: path}
		if rows, err := tail.poll(log); err != nil || numRows(rows) != 0 {
			t.Fatalf("first poll of %d rows: %d new rows, err = %v", base, numRows(rows), err)
		}
		least := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for p := 0; p < polls; p++ {
			var grow bytes.Buffer
			for i := range batch {
				row(&grow, log.NumRows()+i)
			}
			if err := appendFile(path, grow.Bytes()); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			rows, err := tail.poll(log)
			runtime.ReadMemStats(&ms)
			if err != nil || numRows(rows) != batch {
				t.Fatalf("poll over %d rows: %d new rows, err = %v, want %d", log.NumRows(), numRows(rows), err, batch)
			}
			least = min(least, ms.TotalAlloc-before)
			log.AppendTable(rows)
		}
		if got, want := log.Row(log.NumRows() - 1)[0], relation.Int(int64(base+polls*batch)); got != want {
			t.Fatalf("last appended Lid = %v, want %v", got, want)
		}
		return least
	}
	small, large := bytesPerPoll(1<<10), bytesPerPoll(1<<14)
	t.Logf("bytes allocated per poll of %d rows: %d over 1,024 rows, %d over 16,384", batch, small, large)
	if large > 2*small {
		t.Errorf("a poll over 16,384 rows allocated %d bytes, over 1,024 rows %d: the cost grows with the log", large, small)
	}
}

// numRows is the row count of a poll's batch, which is nil when the poll
// found no rows.
func numRows(batch *relation.Table) int {
	if batch == nil {
		return 0
	}
	return batch.NumRows()
}

// TestLogTailLocate pins the first poll, which finds the end of the rows
// the log already holds by counting lines rather than parsing them: a
// header naming other columns or declaring another kind for one, and a file
// with fewer rows than the log, are errors, blank lines are not rows
// (relation.Load skips them), and a file whose header line is not complete
// yet shows nothing.
func TestLogTailLocate(t *testing.T) {
	const header = "Lid:int,User:int\n"
	log, err := relation.Load("Log", strings.NewReader(header+"1,7\n2,7\n"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		file    string
		newRows int
		wantErr string
	}{
		{header + "1,7\n2,7\n3,8\n", 1, ""},
		{header + "1,7\n\n2,7\r\n\r\n3,8\n4,", 1, ""},
		{header + "1,7\n2,7\n", 0, ""},
		{"Lid:int,Us", 0, ""},
		{"Lid:int,Patient:int\n1,7\n2,7\n3,8\n", 0, "changed columns"},
		{"Lid:int,User:string\n1,7\n2,7\n3,8\n", 0, "changed columns"},
		{header + "1,7\n2,", 0, "shrank from 2 to 1 rows"},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "Log.csv")
		if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
			t.Fatal(err)
		}
		tail := &logTail{path: path}
		rows, err := tail.poll(log)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: err = %v, want one naming %q", tc.file, err, tc.wantErr)
			}
			continue
		}
		if err != nil || numRows(rows) != tc.newRows {
			t.Errorf("%q: %d new rows, err = %v; want %d rows", tc.file, numRows(rows), err, tc.newRows)
		} else if tc.newRows == 1 && rows.Cell(0, 0) != relation.Int(3) {
			t.Errorf("%q: new row %v, want Lid 3", tc.file, rows.Row(0))
		}
	}
}
