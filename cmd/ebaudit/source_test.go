package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ehr"
	"repro/internal/relation"
	"repro/internal/schemagraph"
	"repro/internal/store"
)

// runOK runs the CLI and fails the test on error, returning stdout and
// stderr.
func runOK(t *testing.T, argv ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(argv, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", argv, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestStoreGeneratedRunsAgree pins the store namer rule: a store holds no
// ground truth, so the run that creates a store from the generated dataset
// renders exactly what every later run over that store renders.
func TestStoreGeneratedRunsAgree(t *testing.T) {
	for _, cmd := range [][]string{{"audit", "-stream"}, {"unexplained"}} {
		dir := filepath.Join(t.TempDir(), "store")
		first, firstErr := runOK(t, append([]string{"-store", dir}, cmd...)...)
		if !strings.Contains(firstErr, "created store") {
			t.Fatalf("%v: first run did not create the store:\n%s", cmd, firstErr)
		}
		second, _ := runOK(t, append([]string{"-store", dir}, cmd...)...)
		if first == "" || first != second {
			t.Errorf("%v: the creating run and the reopening run print different output (%d vs %d bytes)",
				cmd, len(first), len(second))
		}
	}
}

// TestSkipNoteMissingTable drops one event table from a -data load, as a
// single engine and as one shard of a two-directory Join: every template
// over that table is skipped with exactly one note, templates omits them,
// and the audit still streams.
func TestSkipNoteMissingTable(t *testing.T) {
	exportDir := t.TempDir()
	runOK(t, "export", "-dir", exportDir)
	// The hand-crafted catalog's templates over Appointments.
	affected := []string{"appt-with-dr", "appt-same-dept", "appt-same-group"}
	full, _ := runOK(t, "-data", exportDir, "templates")
	for _, name := range affected {
		if !strings.Contains(full, name+" (length") {
			t.Fatalf("full catalog lacks %s:\n%s", name, full)
		}
	}

	single := t.TempDir()
	entries, err := os.ReadDir(exportDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(exportDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(single, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := splitExportedLog(t, exportDir, 0.5)
	for _, dir := range []string{single, dirA} {
		if err := os.Remove(filepath.Join(dir, "Appointments.csv")); err != nil {
			t.Fatal(err)
		}
	}

	for _, data := range []string{single, dirA + "," + dirB} {
		templates, errOut := runOK(t, "-data", data, "templates")
		if got := strings.Count(errOut, "ebaudit: skipping template"); got != len(affected) {
			t.Errorf("-data %s: %d skip notes, want %d:\n%s", data, got, len(affected), errOut)
		}
		for _, name := range affected {
			note := "ebaudit: skipping template " + name + " (missing tables: Appointments)\n"
			if n := strings.Count(errOut, note); n != 1 {
				t.Errorf("-data %s: note %q printed %d times:\n%s", data, note, n, errOut)
			}
			if strings.Contains(templates, name+" (length") {
				t.Errorf("-data %s: templates lists skipped template %s", data, name)
			}
		}
		if stream, _ := runOK(t, "-data", data, "audit", "-stream"); stream == "" {
			t.Errorf("-data %s: audit -stream emitted nothing", data)
		}
	}
}

// retypeColumn rewrites the header of dir's table so column col declares
// kind instead of its own.
func retypeColumn(t *testing.T, dir, table, col, kind string) {
	t.Helper()
	path := filepath.Join(dir, table+".csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, rows, _ := strings.Cut(string(data), "\n")
	cells := strings.Split(header, ",")
	for i, cell := range cells {
		if name, _, _ := strings.Cut(cell, ":"); name == col {
			cells[i] = name + ":" + kind
		}
	}
	retyped := strings.Join(cells, ",")
	if retyped == header {
		t.Fatalf("%s.csv declares no column %s other than :%s", table, col, kind)
	}
	if err := os.WriteFile(path, []byte(retyped+"\n"+rows), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJoinKindMismatch pins that a dataset whose join columns disagree on
// their kind is an error naming both columns and kinds, on a single engine
// and on one shard of a Join — never an audit that exits 0 after its joins
// matched nothing (a string DeptCodes.User drops every same-dept
// explanation).
func TestJoinKindMismatch(t *testing.T) {
	exportDir := t.TempDir()
	runOK(t, "export", "-dir", exportDir)
	cases := []struct {
		name             string
		table, col, kind string
		join             bool
		want             string
	}{
		{"DeptCodes.User string", "DeptCodes", "User", "string", false,
			"join column kinds disagree: Log.User is int but DeptCodes.User is string"},
		{"Log.Patient string", "Log", "Patient", "string", false,
			"join column kinds disagree: Log.Patient is string but Appointments.Patient is int"},
		{"Join shard DeptCodes.User string", "DeptCodes", "User", "string", true,
			"shardB: join column kinds disagree: Log.User is int but DeptCodes.User is string"},
	}
	for _, tc := range cases {
		dir := filepath.Join(t.TempDir(), "shardB")
		data := dir
		if tc.join {
			dirA, dirB := splitExportedLog(t, exportDir, 0.5)
			if err := os.Rename(dirB, dir); err != nil {
				t.Fatal(err)
			}
			data = dirA + "," + dir
		} else if err := os.CopyFS(dir, os.DirFS(exportDir)); err != nil {
			t.Fatal(err)
		}
		retypeColumn(t, dir, tc.table, tc.col, tc.kind)
		for _, cmd := range [][]string{{"audit", "-stream"}, {"unexplained"}} {
			var stdout, stderr bytes.Buffer
			err := run(append([]string{"-data", data}, cmd...), &stdout, &stderr)
			if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %v: err = %v, want an exit-1 error containing %q", tc.name, cmd, err, tc.want)
			}
			if stdout.Len() > 0 {
				t.Errorf("%s: %v printed %d bytes before failing", tc.name, cmd, stdout.Len())
			}
		}
	}
}

// TestJoinKindLaw is the law behind TestJoinKindMismatch: declaring any
// join column of the exported dataset a string, where it is an int, is an
// error naming that column — never a changed answer.
func TestJoinKindLaw(t *testing.T) {
	exportDir := t.TempDir()
	runOK(t, "export", "-dir", exportDir)
	seen := map[schemagraph.Attr]bool{}
	for _, e := range ehr.SchemaGraph(ehr.DefaultGraphOptions()).Edges() {
		if seen[e.From] || e.Kind == schemagraph.SelfJoin {
			continue
		}
		seen[e.From] = true
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(exportDir)); err != nil {
			t.Fatal(err)
		}
		retypeColumn(t, dir, e.From.Table, e.From.Column, "string")
		var stdout, stderr bytes.Buffer
		err := run([]string{"-data", dir, "unexplained"}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), e.From.String()+" is string") {
			t.Errorf("%s declared string: err = %v, want a kind mismatch naming it", e.From, err)
		}
	}
	if len(seen) < 10 {
		t.Errorf("only %d join columns checked", len(seen))
	}
	t.Logf("%d join columns checked", len(seen))
}

// TestStoreStaleSnapshotReopen makes an existing store's warm-start
// snapshot stale by adding a table behind it: the next reopen must say it
// starts cold and stream exactly what a cold -data load streams.
func TestStoreStaleSnapshotReopen(t *testing.T) {
	exportDir := t.TempDir()
	runOK(t, "export", "-dir", exportDir)
	want, _ := runOK(t, "-data", exportDir, "audit", "-stream")

	dir := filepath.Join(t.TempDir(), "store")
	runOK(t, "-data", exportDir, "-store", dir, "audit", "-stream")
	if _, warmErr := runOK(t, "-store", dir, "audit", "-stream"); !strings.Contains(warmErr, "warm start from") {
		t.Fatalf("reopen before the schema change was not warm:\n%s", warmErr)
	}

	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	extra := relation.NewTable("Extra", "Id")
	extra.Append(relation.Int(1))
	if err := st.SaveTable(extra); err != nil {
		t.Fatal(err)
	}

	got, gotErr := runOK(t, "-store", dir, "audit", "-stream")
	if !strings.Contains(gotErr, "(starting cold)") {
		t.Errorf("stale snapshot not reported:\n%s", gotErr)
	}
	if strings.Contains(gotErr, "warm start from") {
		t.Errorf("stale snapshot was installed:\n%s", gotErr)
	}
	if got != want {
		t.Errorf("stale-snapshot reopen streams differently from a cold -data load (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestStoreOldSnapshotFormatStartsCold rewrites a store's warm-start
// snapshot into the EBWRM01 layout, which listed plan-cache keys between the
// log watermark and the masks: the next run must say it starts cold, stream
// exactly what the cold run that created the store streamed, and leave a
// current snapshot the run after it starts warm from.
func TestStoreOldSnapshotFormatStartsCold(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	want, _ := runOK(t, "-store", dir, "audit", "-stream")

	snap := filepath.Join(dir, "WARM.snap")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	const magic, frame = len("EBWRM02\n"), 8
	if string(data[:magic]) != "EBWRM02\n" {
		t.Fatalf("snapshot opens with %q", data[:magic])
	}
	payload := data[magic+frame:]
	// The head: schema version, 8-byte fingerprint, log table name, log rows.
	_, n := binary.Uvarint(payload)
	head := n + 8
	nameLen, n := binary.Uvarint(payload[head:])
	head += n + int(nameLen)
	_, n = binary.Uvarint(payload[head:])
	head += n
	old := append([]byte(nil), payload[:head]...)
	old = append(binary.AppendUvarint(old, 1), 3, 'k', '|', 'x')
	old = append(old, payload[head:]...)
	file := binary.LittleEndian.AppendUint32([]byte("EBWRM01\n"), uint32(len(old)))
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(old, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(snap, append(file, old...), 0o644); err != nil {
		t.Fatal(err)
	}

	got, gotErr := runOK(t, "-store", dir, "audit", "-stream")
	if !strings.Contains(gotErr, "(starting cold)") || strings.Contains(gotErr, "warm start from") {
		t.Errorf("an EBWRM01 snapshot was not discarded:\n%s", gotErr)
	}
	if got != want {
		t.Errorf("the cold restart streams differently from the run that created the store (%d vs %d bytes)",
			len(got), len(want))
	}
	if _, warmErr := runOK(t, "-store", dir, "audit", "-stream"); !strings.Contains(warmErr, "warm start from") {
		t.Errorf("the cold restart left no current snapshot:\n%s", warmErr)
	}
}
