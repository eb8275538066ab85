package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// startWatch returns a directory holding a Log.csv and a started watch on
// it, closed when the test ends.
func startWatch(t *testing.T) (dir string, w *logWatch) {
	t.Helper()
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "Log.csv"), []byte("Lid:int\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w = watchLog(dir, "Log.csv")
	if w.f == nil {
		t.Fatal("inotify watch did not start")
	}
	t.Cleanup(func() { w.Close() })
	return dir, w
}

// timedWait runs w.wait(timeout) while act runs after a short delay, and
// returns how long the wait took.
func timedWait(t *testing.T, w *logWatch, timeout time.Duration, act func() error) time.Duration {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		done <- act()
	}()
	start := time.Now()
	w.wait(timeout)
	elapsed := time.Since(start)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return elapsed
}

// TestLogWatchWakesOnAppend pins the wake: an append to Log.csv ends a
// 10 s wait a few ms after it lands, not when the timeout runs out.
func TestLogWatchWakesOnAppend(t *testing.T) {
	dir, w := startWatch(t)
	elapsed := timedWait(t, w, 10*time.Second, func() error {
		return appendFile(filepath.Join(dir, "Log.csv"), []byte("1\n"))
	})
	t.Logf("woke %v after the wait began (the append came at 20ms)", elapsed)
	if elapsed > 2*time.Second {
		t.Errorf("an append to Log.csv ended a 10s wait after %v", elapsed)
	}
}

// TestLogWatchTimesOut pins the bound: with no event the wait returns after
// about its timeout, and a write already seen by one wait does not end the
// next.
func TestLogWatchTimesOut(t *testing.T) {
	dir, w := startWatch(t)
	if err := appendFile(filepath.Join(dir, "Log.csv"), []byte("1\n")); err != nil {
		t.Fatal(err)
	}
	w.wait(10 * time.Second) // consumes the append's event
	const timeout = 100 * time.Millisecond
	start := time.Now()
	w.wait(timeout)
	if elapsed := time.Since(start); elapsed < timeout || elapsed > timeout+2*time.Second {
		t.Errorf("a wait with no event took %v, want about %v", elapsed, timeout)
	}
}

// TestLogWatchIgnoresOtherFiles pins that writes to other files in the
// directory — a -store kept inside -data is written on every batch — do not
// end the wait, so they cannot turn follow mode into a busy poll.
func TestLogWatchIgnoresOtherFiles(t *testing.T) {
	dir, w := startWatch(t)
	const timeout = 200 * time.Millisecond
	elapsed := timedWait(t, w, timeout, func() error {
		if err := os.WriteFile(filepath.Join(dir, "Other.csv"), []byte("x\n"), 0o644); err != nil {
			return err
		}
		if err := os.Mkdir(filepath.Join(dir, "store"), 0o755); err != nil {
			return err
		}
		return os.Rename(filepath.Join(dir, "Other.csv"), filepath.Join(dir, "Log.csv.bak"))
	})
	if elapsed < timeout {
		t.Errorf("writes to other files ended a %v wait after %v", timeout, elapsed)
	}
}

// TestLogWatchWakesOnRename pins the atomic-rewrite writer: a file renamed
// onto Log.csv ends the wait.
func TestLogWatchWakesOnRename(t *testing.T) {
	dir, w := startWatch(t)
	elapsed := timedWait(t, w, 10*time.Second, func() error {
		tmp := filepath.Join(dir, ".Log.csv.tmp")
		if err := os.WriteFile(tmp, []byte("Lid:int\n1\n"), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, filepath.Join(dir, "Log.csv"))
	})
	if elapsed > 2*time.Second {
		t.Errorf("a rename onto Log.csv ended a 10s wait after %v", elapsed)
	}
}

// TestFollowWakesOnWrite is the CLI half of the wake: under -poll 10s,
// every appended batch is audited well inside the poll interval, so the
// session over three batches ends in far less than the 30 s its polls
// alone would take, its output is byte-identical to a one-shot audit
// -stream over the final log, and it leaves no goroutine or open file
// behind. (The 5 ms-poll follow tests cannot tell a wake from a poll.)
func TestFollowWakesOnWrite(t *testing.T) {
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
	cur, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	rows := bytes.SplitAfter(fullLog[len(cur):], []byte("\n"))
	rows = rows[:len(rows)-1] // SplitAfter leaves a trailing empty element
	const batches = 3
	per := (len(rows) + batches - 1) / batches

	// Each batch is appended once the session has reported the one before
	// it, and its lag is timed from the append to the "appended" line.
	followCh := make(chan struct{})
	markers := map[string]chan struct{}{"following ": followCh}
	var appendedCh []chan struct{}
	for k, audited := 0, total-len(rows); k < batches; k++ {
		audited = min(audited+per, total)
		ch := make(chan struct{})
		markers[fmt.Sprintf("(%d audited)", audited)] = ch
		appendedCh = append(appendedCh, ch)
	}
	gotErr := &markerWriter{markers: markers}
	quit, done := make(chan struct{}), make(chan struct{})
	lags := make([]time.Duration, 0, batches)
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	go func() {
		defer close(done)
		if !awaitMarker(followCh, quit) {
			return
		}
		for k := range batches {
			batch := bytes.Join(rows[k*per:min((k+1)*per, len(rows))], nil)
			start := time.Now()
			if err := appendFile(logPath, batch); err != nil {
				t.Errorf("appending batch %d: %v", k, err)
				return
			}
			if !awaitMarker(appendedCh[k], quit) {
				return
			}
			lags = append(lags, time.Since(start))
		}
	}()

	var got bytes.Buffer
	err = run([]string{"-data", dir, "audit", "-follow",
		"-poll", "10s", "-follow-rows", fmt.Sprint(total)}, &got, gotErr)
	close(quit)
	<-done
	if err != nil {
		t.Fatalf("audit -follow: %v\nstderr: %s", err, gotErr.String())
	}
	// Nothing the session started outlives it: no goroutine (the writer
	// above has been joined) and no file, the watch's included.
	for wait := time.Millisecond; runtime.NumGoroutine() > goroutines && wait < time.Second; wait *= 2 {
		time.Sleep(wait)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the session, %d before", n, goroutines)
	}
	if n := openFDs(t); n != fds {
		t.Errorf("%d open files after the session, %d before", n, fds)
	}
	if got.String() != want.String() {
		t.Errorf("follow NDJSON differs from one-shot stream (%d vs %d bytes)", got.Len(), want.Len())
	}
	if len(lags) != batches {
		t.Fatalf("%d of %d batches were reported\nstderr: %s", len(lags), batches, gotErr.String())
	}
	t.Logf("append-to-report lag per batch under -poll 10s: %v", lags)
	for k, lag := range lags {
		if lag > 5*time.Second {
			t.Errorf("batch %d was reported %v after its append: the poll slept instead of waking", k, lag)
		}
	}
	if strings.Contains(gotErr.String(), "follow poll") {
		t.Errorf("a poll failed:\n%s", gotErr.String())
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}
