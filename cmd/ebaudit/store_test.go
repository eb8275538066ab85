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

// TestStoreColdWarmByteIdentical is the persistence differential pinning the
// storage subsystem's contract: the NDJSON stream must be byte-identical
// across (a) a cold CSV load, (b) the migration run that creates the segment
// store, and (c) a warm restart that reopens the store and resumes from its
// snapshot — across dataset seeds and worker counts. The warm run must also
// actually BE warm: every template mask restored, zero mask recomputes.
func TestStoreColdWarmByteIdentical(t *testing.T) {
	for _, seed := range []string{"1", "2", "3"} {
		exportDir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-seed", seed, "export", "-dir", exportDir}, &stdout, &stderr); err != nil {
			t.Fatalf("seed %s export: %v", seed, err)
		}

		var want, wantErr bytes.Buffer
		if err := run([]string{"-data", exportDir, "audit", "-stream"}, &want, &wantErr); err != nil {
			t.Fatalf("seed %s audit -stream: %v\nstderr: %s", seed, err, wantErr.String())
		}
		if want.Len() == 0 {
			t.Fatal("reference stream is empty")
		}

		for _, j := range []string{"1", "4"} {
			storeDir := filepath.Join(t.TempDir(), "store")

			var cold, coldErr bytes.Buffer
			err := run([]string{"-data", exportDir, "-store", storeDir, "-j", j,
				"audit", "-stream"}, &cold, &coldErr)
			if err != nil {
				t.Fatalf("seed %s -j %s migration run: %v\nstderr: %s", seed, j, err, coldErr.String())
			}
			if cold.String() != want.String() {
				t.Errorf("seed %s -j %s: migration NDJSON differs from CSV load (%d vs %d bytes)",
					seed, j, cold.Len(), want.Len())
			}
			if !strings.Contains(coldErr.String(), "created store") {
				t.Errorf("seed %s -j %s: migration run did not report store creation:\n%s",
					seed, j, coldErr.String())
			}

			var warm, warmErr bytes.Buffer
			err = run([]string{"-store", storeDir, "-j", j, "audit", "-stream", "-v"}, &warm, &warmErr)
			if err != nil {
				t.Fatalf("seed %s -j %s warm run: %v\nstderr: %s", seed, j, err, warmErr.String())
			}
			if warm.String() != want.String() {
				t.Errorf("seed %s -j %s: warm NDJSON differs from CSV load (%d vs %d bytes)",
					seed, j, warm.Len(), want.Len())
			}
			var masks int
			for _, line := range strings.Split(warmErr.String(), "\n") {
				if i := strings.Index(line, "warm start from"); i >= 0 {
					if _, err := fmt.Sscanf(line[i:], "warm start from %s %d masks restored",
						new(string), &masks); err != nil {
						t.Fatalf("seed %s -j %s: unparseable warm-start note %q: %v", seed, j, line, err)
					}
				}
			}
			if masks == 0 {
				t.Errorf("seed %s -j %s: warm start restored no masks:\n%s", seed, j, warmErr.String())
			}
			maskLine := ""
			for _, line := range strings.Split(warmErr.String(), "\n") {
				if strings.HasPrefix(line, "mask cache:") {
					maskLine = line
				}
			}
			if maskLine == "" {
				t.Fatalf("seed %s -j %s: warm -v output has no mask-cache counters:\n%s", seed, j, warmErr.String())
			}
			if !strings.Contains(maskLine, " 0 recomputes") {
				t.Errorf("seed %s -j %s: warm run recomputed masks: %s", seed, j, maskLine)
			}
		}
	}
}

// TestStoreFollowPersistsRows runs follow mode against a growing CSV log
// with a segment store attached: every appended batch must be persisted to
// the store's Log segment and the warm snapshot advanced, so a later
// store-only restart is warm and audits the FULL log byte-identically to a
// cold CSV audit over the final dataset — even though the store was created
// from the truncated prefix.
func TestStoreFollowPersistsRows(t *testing.T) {
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
	storeDir := filepath.Join(t.TempDir(), "store")

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(30 * time.Millisecond)
		tmp := filepath.Join(dir, ".Log.csv.tmp")
		if err := os.WriteFile(tmp, fullLog, 0o644); err != nil {
			t.Errorf("writing grown log: %v", err)
			return
		}
		if err := os.Rename(tmp, filepath.Join(dir, "Log.csv")); err != nil {
			t.Errorf("renaming grown log: %v", err)
		}
	}()

	var follow, followErr bytes.Buffer
	err := run([]string{"-data", dir, "-store", storeDir, "audit", "-follow",
		"-poll", "5ms", "-follow-rows", fmt.Sprint(total)}, &follow, &followErr)
	<-done
	if err != nil {
		t.Fatalf("audit -follow: %v\nstderr: %s", err, followErr.String())
	}

	var warm, warmErr bytes.Buffer
	if err := run([]string{"-store", storeDir, "audit", "-stream"}, &warm, &warmErr); err != nil {
		t.Fatalf("store reopen after follow: %v\nstderr: %s", err, warmErr.String())
	}
	if !strings.Contains(warmErr.String(), "warm start from") {
		t.Errorf("reopen after follow started cold:\n%s", warmErr.String())
	}
	if warm.String() != want.String() {
		t.Errorf("store after follow audits differently from the full CSV (%d vs %d bytes)",
			warm.Len(), want.Len())
	}
}

// TestStoreExportRoundTrip pins CSV → store → CSV as byte-identity: a
// dataset exported to CSV, migrated into a segment store via export -format
// store, then re-exported from the store must reproduce every CSV file
// exactly — the two formats encode the same values, not approximations.
func TestStoreExportRoundTrip(t *testing.T) {
	csv1 := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", csv1}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	storeDir := filepath.Join(t.TempDir(), "store")
	var out1, err1 bytes.Buffer
	if err := run([]string{"-data", csv1, "export", "-format", "store", "-dir", storeDir}, &out1, &err1); err != nil {
		t.Fatalf("export -format store: %v\nstderr: %s", err, err1.String())
	}
	csv2 := t.TempDir()
	var out2, err2 bytes.Buffer
	if err := run([]string{"-store", storeDir, "export", "-dir", csv2}, &out2, &err2); err != nil {
		t.Fatalf("re-export from store: %v\nstderr: %s", err, err2.String())
	}

	entries, err := os.ReadDir(csv1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("first export wrote no files")
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(csv1, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(csv2, e.Name()))
		if err != nil {
			t.Fatalf("round trip lost %s: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs after CSV → store → CSV round trip (%d vs %d bytes)",
				e.Name(), len(a), len(b))
		}
	}
}

// TestStoreFederatedShards covers per-shard stores: migrating a federation's
// shards into stores and reopening them must both stream byte-identically to
// the plain CSV federation. (The exported shard directories already carry
// identical Groups.csv copies, so every start here reuses them; the
// train-then-persist warm start is covered by TestStoreShardGroupsWarmStart.)
func TestStoreFederatedShards(t *testing.T) {
	exportDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", exportDir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	data := exportDir + "," + exportDir
	var want, wantErr bytes.Buffer
	if err := run([]string{"-data", data, "audit", "-stream"}, &want, &wantErr); err != nil {
		t.Fatalf("federated audit -stream: %v\nstderr: %s", err, wantErr.String())
	}

	base := t.TempDir()
	stores := filepath.Join(base, "s1") + "," + filepath.Join(base, "s2")
	var cold, coldErr bytes.Buffer
	if err := run([]string{"-data", data, "-store", stores, "audit", "-stream"}, &cold, &coldErr); err != nil {
		t.Fatalf("shard migration run: %v\nstderr: %s", err, coldErr.String())
	}
	if cold.String() != want.String() {
		t.Errorf("shard migration NDJSON differs from CSV federation (%d vs %d bytes)",
			cold.Len(), want.Len())
	}
	if strings.Count(coldErr.String(), "created store") != 2 {
		t.Errorf("expected two store creations:\n%s", coldErr.String())
	}

	var reopen, reopenErr bytes.Buffer
	if err := run([]string{"-store", stores, "audit", "-stream"}, &reopen, &reopenErr); err != nil {
		t.Fatalf("shard store reopen: %v\nstderr: %s", err, reopenErr.String())
	}
	if reopen.String() != want.String() {
		t.Errorf("shard store reopen NDJSON differs from CSV federation (%d vs %d bytes)",
			reopen.Len(), want.Len())
	}
}

// TestStoreShardGroupsWarmStart pins the federated Groups warm start: shard
// directories without a Groups.csv force the first -store start to train the
// merged-log hierarchy and persist it into every shard store, and the reopen
// reuses the persisted copies without retraining — while streaming
// byte-identically to both the training run and the plain -data federation.
func TestStoreShardGroupsWarmStart(t *testing.T) {
	exportDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"export", "-dir", exportDir}, &stdout, &stderr); err != nil {
		t.Fatalf("export: %v", err)
	}
	dirA, dirB := splitExportedLog(t, exportDir, 0.5)
	for _, dir := range []string{dirA, dirB} {
		if err := os.Remove(filepath.Join(dir, "Groups.csv")); err != nil {
			t.Fatalf("shard export has no Groups.csv to drop: %v", err)
		}
	}
	data := dirA + "," + dirB

	var want, wantErr bytes.Buffer
	if err := run([]string{"-data", data, "audit", "-stream"}, &want, &wantErr); err != nil {
		t.Fatalf("reference federation: %v\nstderr: %s", err, wantErr.String())
	}

	base := t.TempDir()
	stores := filepath.Join(base, "s1") + "," + filepath.Join(base, "s2")
	var cold, coldErr bytes.Buffer
	if err := run([]string{"-data", data, "-store", stores, "audit", "-stream"}, &cold, &coldErr); err != nil {
		t.Fatalf("training run: %v\nstderr: %s", err, coldErr.String())
	}
	if cold.String() != want.String() {
		t.Error("training run NDJSON differs from the plain -data federation")
	}
	if !strings.Contains(coldErr.String(), "persisted merged-log Groups table to 2 shard store(s)") {
		t.Errorf("training run did not report persisting Groups:\n%s", coldErr.String())
	}

	var warm, warmErr bytes.Buffer
	if err := run([]string{"-store", stores, "audit", "-stream"}, &warm, &warmErr); err != nil {
		t.Fatalf("warm run: %v\nstderr: %s", err, warmErr.String())
	}
	if warm.String() != want.String() {
		t.Error("warm run NDJSON differs from the training run")
	}
	if strings.Contains(warmErr.String(), "persisted merged-log Groups table") {
		t.Errorf("warm run retrained and re-persisted Groups:\n%s", warmErr.String())
	}
}

// TestStoreValidation pins the -store flag surface: shard-list mismatches,
// impossible migrations, and unknown export formats are refused with
// actionable errors rather than half-built stores.
func TestStoreValidation(t *testing.T) {
	exportDir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"export", "-dir", exportDir}, &buf, &buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	existing := filepath.Join(t.TempDir(), "store")
	if err := run([]string{"-data", exportDir, "export", "-format", "store", "-dir", existing}, &buf, &buf); err != nil {
		t.Fatalf("building existing store: %v", err)
	}
	missing := filepath.Join(t.TempDir(), "missing")
	twoData := exportDir + "," + exportDir

	cases := []struct {
		argv []string
		want string
	}{
		{[]string{"-store", missing, "-data", twoData, "audit"}, "one -store per shard"},
		{[]string{"-store", existing, "-data", twoData, "audit"}, "cannot be combined"},
		{[]string{"-store", missing + "," + missing + "2", "-data", exportDir, "audit"}, "pair up by position"},
		{[]string{"-store", missing + "," + missing + "2", "audit"}, "no -data shard to migrate it from"},
		{[]string{"-data", exportDir, "export", "-format", "xml", "-dir", missing}, "unknown export format"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.argv, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error = %v, want containing %q", tc.argv, err, tc.want)
		}
	}
}
