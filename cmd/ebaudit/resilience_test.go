package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// countLogRows returns the number of data rows in dir's Log.csv.
func countLogRows(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "Log.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return len(lines) - 1 // minus header
}

// TestCLIFaultsRetryByteIdentical is the CLI chaos differential: a
// federated audit -stream whose shard stream seam fails transiently, run
// with a -retries budget, must emit NDJSON byte-identical to the unfaulted
// single-engine stream — the resume-skip retry leaves no duplicates and no
// holes.
func TestCLIFaultsRetryByteIdentical(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	var want, wantErr bytes.Buffer
	if err := run([]string{"-data", dir, "audit", "-stream"}, &want, &wantErr); err != nil {
		t.Fatalf("reference stream: %v\nstderr: %s", err, wantErr.String())
	}
	dirA, dirB := splitExportedLog(t, dir, 0.4)

	var got, gotErr bytes.Buffer
	err := run([]string{"-data", dirA + "," + dirB,
		"-faults", "federate.west.stream:flaky:2",
		"audit", "-stream", "-retries", "3"}, &got, &gotErr)
	if err != nil {
		t.Fatalf("faulted federated stream: %v\nstderr: %s", err, gotErr.String())
	}
	if got.String() != want.String() {
		t.Errorf("faulted+retried stream differs from the single-engine stream (%d vs %d bytes)",
			got.Len(), want.Len())
	}
	if fault.Default.Injected() == 0 {
		t.Error("no faults fired; the differential proved nothing")
	}
}

// TestCLIShardDownFailsStream pins strict federation at the CLI: with one
// shard permanently down, audit -stream exits with a shard-down error, and
// what it wrote to stdout is exactly the reports of the shard before it —
// a byte prefix of the single-engine stream, because the log was split at a
// time cut. A federation never answers over only part of its shards.
func TestCLIShardDownFailsStream(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	var want, wantErr bytes.Buffer
	if err := run([]string{"-data", dir, "audit", "-stream"}, &want, &wantErr); err != nil {
		t.Fatalf("reference stream: %v\nstderr: %s", err, wantErr.String())
	}
	dirA, dirB := splitExportedLog(t, dir, 0.4)
	rowsA, rowsB := countLogRows(t, dirA), countLogRows(t, dirB)
	wantLines := strings.SplitAfter(want.String(), "\n")
	if wantLines[len(wantLines)-1] == "" {
		wantLines = wantLines[:len(wantLines)-1]
	}
	if len(wantLines) != rowsA+rowsB {
		t.Fatalf("reference stream has %d lines, want %d", len(wantLines), rowsA+rowsB)
	}

	var got, gotErr bytes.Buffer
	err := run([]string{"-data", dirA + "," + dirB,
		"-faults", "federate.west.*:error",
		"audit", "-stream"}, &got, &gotErr)
	if err == nil || !strings.Contains(err.Error(), "shard down") {
		t.Fatalf("stream with a downed shard: err = %v, want shard-down failure", err)
	}
	if got.String() != strings.Join(wantLines[:rowsA], "") {
		t.Errorf("stdout (%d bytes) is not exactly the east shard's %d lines of the single-engine stream", got.Len(), rowsA)
	}
}

// TestFailedStreamLeavesWholeLines: a federated audit -stream whose shard
// stream fails part-way must fail, and what it already wrote to stdout must
// be whole NDJSON lines — a byte prefix of the unfaulted stream that a
// line-oriented consumer can parse to the end, never a torn last object.
func TestFailedStreamLeavesWholeLines(t *testing.T) {
	t.Cleanup(fault.Reset)
	var want, wantErr bytes.Buffer
	if err := run([]string{"audit", "-stream", "-shards", "2"}, &want, &wantErr); err != nil {
		t.Fatalf("reference stream: %v\nstderr: %s", err, wantErr.String())
	}
	var got, gotErr bytes.Buffer
	err := run([]string{"-faults", "federate.shard1.stream.row:error:1:100",
		"audit", "-stream", "-shards", "2"}, &got, &gotErr)
	if err == nil {
		t.Fatal("audit -stream succeeded with a shard stream failing mid-way")
	}
	if fault.Default.Injected() == 0 {
		t.Fatal("no faults fired; the test proved nothing")
	}
	out := got.Bytes()
	if len(out) == 0 || out[len(out)-1] != '\n' {
		t.Fatalf("stdout (%d bytes) does not end in a newline", len(out))
	}
	for i, line := range bytes.SplitAfter(out[:len(out)-1], []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("stdout line %d is not valid JSON: %.80q", i+1, line)
		}
	}
	if !bytes.HasPrefix(want.Bytes(), out) {
		t.Errorf("stdout (%d bytes) is not a prefix of the unfaulted stream (%d bytes)", len(out), want.Len())
	}
}

// TestCLIResilienceValidation pins the flag surface: -retries requires a
// federation and is bounds-checked, -degraded and -call-timeout are not
// audit flags and hang is not a fault kind, and malformed -faults specs are
// rejected with pointable diagnostics.
func TestCLIResilienceValidation(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"export", "-dir", dir}, &buf, &buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	cases := []struct {
		argv []string
		want string
	}{
		{[]string{"-data", dir, "audit", "-retries", "2"}, "requires a federated audit"},
		{[]string{"audit", "-retries", "-1"}, "-retries must be >= 0"},
		{[]string{"audit", "-shards", "2", "-degraded"}, "flag provided but not defined: -degraded"},
		{[]string{"audit", "-shards", "2", "-call-timeout", "1s"}, "flag provided but not defined: -call-timeout"},
		{[]string{"audit", "-grace", "0s"}, "-grace must be positive"},
		{[]string{"-faults", "noseam", "summary"}, "want SITE:KIND"},
		{[]string{"-faults", "a.b:bogus", "summary"}, "unknown kind"},
		{[]string{"-faults", "a.b:hang", "summary"}, "unknown kind"},
		{[]string{"-faults", "a.b:delay=xyz", "summary"}, "bad delay"},
		{[]string{"-faults", "a.b:error:x", "summary"}, "bad count"},
		{[]string{"-faults", "a.b:error:1:y", "summary"}, "bad after"},
		{[]string{"-faults", ":error", "summary"}, "empty site"},
		{[]string{"-faults", "a.b:error,", "summary"}, "empty entry"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.argv, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error = %v, want containing %q", tc.argv, err, tc.want)
		}
		fault.Reset()
	}
}

// TestFollowGraceRecovers pins satellite behavior for follow mode: the
// -data file renamed away mid-session (a log rotation caught at the wrong
// moment) produces transient poll errors that are retried with backoff
// inside the grace window, and once the file returns — grown to the full
// log — the session recovers and the concatenated NDJSON is byte-identical
// to a one-shot stream over the final log.
func TestFollowGraceRecovers(t *testing.T) {
	exportDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", exportDir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	var want, wantErr bytes.Buffer
	if err := run([]string{"-data", exportDir, "audit", "-stream"}, &want, &wantErr); err != nil {
		t.Fatalf("audit -stream: %v\nstderr: %s", err, wantErr.String())
	}

	dir, fullLog, total := truncatedExport(t, exportDir, 0.9)
	logPath := filepath.Join(dir, "Log.csv")
	awayPath := logPath + ".away"

	// The outage is sequenced off follow's own stderr, not wall-clock
	// sleeps: rename the log away once the catch-up banner confirms polling
	// has started, and bring it back (grown to the full log) only after a
	// retried poll error proves the outage was observed. A session that
	// ends first closes quit, so the writer is always joined.
	followCh := make(chan struct{})
	retryCh := make(chan struct{})
	gotErr := &markerWriter{markers: map[string]chan struct{}{
		"following ":      followCh,
		"retrying within": retryCh,
	}}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if !awaitMarker(followCh, quit) {
			return
		}
		if err := os.Rename(logPath, awayPath); err != nil {
			t.Errorf("renaming log away: %v", err)
			return
		}
		if !awaitMarker(retryCh, quit) {
			return
		}
		tmp := filepath.Join(dir, ".Log.csv.tmp")
		if err := os.WriteFile(tmp, fullLog, 0o644); err != nil {
			t.Errorf("writing grown log: %v", err)
			return
		}
		if err := os.Rename(tmp, logPath); err != nil {
			t.Errorf("renaming grown log back: %v", err)
		}
	}()

	var got bytes.Buffer
	err := run([]string{"-data", dir, "audit", "-follow",
		"-poll", "5ms", "-grace", "10s", "-follow-rows", fmt.Sprint(total)}, &got, gotErr)
	close(quit)
	<-done
	if err != nil {
		t.Fatalf("audit -follow: %v\nstderr: %s", err, gotErr.String())
	}
	if got.String() != want.String() {
		t.Errorf("follow NDJSON differs from one-shot stream (%d vs %d bytes)", got.Len(), want.Len())
	}
	if !strings.Contains(gotErr.String(), "retrying within") {
		t.Errorf("stderr shows no retried poll errors — the outage window was never observed:\n%s", gotErr.String())
	}
}

// markerWriter is a threadsafe stderr sink that closes a marker's channel
// the first time the accumulated output contains its substring — how the
// grace tests sequence filesystem outages against follow's progress without
// sleeps.
type markerWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	markers map[string]chan struct{}
}

func (w *markerWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for s, ch := range w.markers {
		select {
		case <-ch:
		default:
			if bytes.Contains(w.buf.Bytes(), []byte(s)) {
				close(ch)
			}
		}
	}
	return len(p), nil
}

func (w *markerWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// awaitMarker waits for a marker channel and reports whether it closed
// before quit did: a writer goroutine gives up on a session that has
// already ended.
func awaitMarker(marker, quit <-chan struct{}) bool {
	select {
	case <-marker:
		return true
	case <-quit:
		return false
	}
}

// TestFollowGraceExpires is the bound on the bound: a poll failure that
// never heals must end the session with the underlying error once the grace
// window is spent, not retry forever.
func TestFollowGraceExpires(t *testing.T) {
	exportDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", exportDir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	dir, _, total := truncatedExport(t, exportDir, 0.9)
	logPath := filepath.Join(dir, "Log.csv")

	followCh := make(chan struct{})
	gotErr := &markerWriter{markers: map[string]chan struct{}{"following ": followCh}}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if !awaitMarker(followCh, quit) {
			return
		}
		if err := os.Rename(logPath, logPath+".gone"); err != nil {
			t.Errorf("renaming log away: %v", err)
		}
	}()

	var got bytes.Buffer
	start := time.Now()
	err := run([]string{"-data", dir, "audit", "-follow",
		"-poll", "5ms", "-grace", "75ms", "-follow-rows", fmt.Sprint(total)}, &got, gotErr)
	close(quit)
	<-done
	if err == nil || !strings.Contains(err.Error(), "follow poll failing") {
		t.Fatalf("follow with a permanent outage: err = %v, want grace-window failure", err)
	}
	if !strings.Contains(err.Error(), "grace 75ms") {
		t.Errorf("error does not name the grace window: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("follow took %v to give up on a 75ms grace window", elapsed)
	}
}

// TestFailedAuditNeverReadsClean is the exit-status contract: when every
// mask computation fails (single engine, core.mask.ensure armed) or every
// shard call fails (a two-directory federation, federate.* armed), each
// subcommand that reports on the audit must fail — never print "0 of N
// accesses unexplained", a 0.000 explained fraction or "batch-audited 0
// accesses" and exit 0 as if the log were clean. A federated command fails
// at the first shard seam its call reaches, which the error names: plain
// audit answers from the masks, so it trips .unexplained as summary does.
func TestFailedAuditNeverReadsClean(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"export", "-dir", dir}, &buf, &buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	dirA, dirB := splitExportedLog(t, dir, 0.5)
	setups := []struct {
		name      string
		argv      []string
		federated bool
	}{
		{"single engine", []string{"-faults", "core.mask.ensure:error"}, false},
		{"federated", []string{"-data", dirA + "," + dirB, "-faults", "federate.*:error"}, true},
	}
	commands := []struct {
		argv []string
		seam string // the federated shard seam the command trips
	}{
		{[]string{"summary"}, ".unexplained"},
		{[]string{"unexplained"}, ".unexplained"},
		{[]string{"audit"}, ".unexplained"},
		{[]string{"audit", "-stream"}, ".stream"},
		{[]string{"patient", "-id", "1"}, ".report"},
	}
	clean := []string{"0 of ", "explained fraction with hand-crafted templates: 0.000", "batch-audited 0 accesses"}
	for _, setup := range setups {
		for _, cmd := range commands {
			argv := append(append([]string(nil), setup.argv...), cmd.argv...)
			var stdout, stderr bytes.Buffer
			err := run(argv, &stdout, &stderr)
			fault.Reset()
			if err == nil {
				t.Errorf("%s %v: run succeeded under an armed fault; stdout:\n%s", setup.name, cmd.argv, stdout.String())
			} else if setup.federated && !strings.Contains(err.Error(), cmd.seam+":") {
				t.Errorf("%s %v: error %q does not name the %s seam", setup.name, cmd.argv, err, cmd.seam)
			}
			for _, s := range clean {
				if strings.Contains(stdout.String(), s) {
					t.Errorf("%s %v: stdout reads as a clean audit (%q):\n%s", setup.name, cmd.argv, s, stdout.String())
				}
			}
		}
	}
}
