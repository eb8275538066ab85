package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relation"
)

// readBack writes db to a fresh store, reopens it, and checks every table
// reads back row for row equal to what was written.
func readBack(t *testing.T, db *relation.Database) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := Create(dir, db); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range db.TableNames() {
		tablesEqual(t, got.MustTable(name), db.MustTable(name))
		if v, n := got.MustTable(name).AppendVersion(), got.MustTable(name).NumRows(); v != uint64(n) {
			t.Errorf("%s: AppendVersion %d after load, want the row count %d", name, v, n)
		}
	}
	return dir
}

// TestReadSegmentLargerThanReader pins the reader sizing: a segment bigger
// than the 1 MiB reader cap streams through it across many refills.
func TestReadSegmentLargerThanReader(t *testing.T) {
	dir := readBack(t, bigLogDB(100_000))
	st, err := os.Stat(filepath.Join(dir, "Log.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= 1<<20 {
		t.Fatalf("segment is %d bytes; the test needs one larger than the 1 MiB reader", st.Size())
	}
}

// TestReadSegmentOneRow pins the other end: a one-row segment gets a
// reader barely larger than the file, and still reads back whole, also
// after a later append record.
func TestReadSegmentOneRow(t *testing.T) {
	dir := readBack(t, bigLogDB(1))
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRows("Log", [][]relation.Value{logRow(2)}); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, got.MustTable("Log"), bigLogDB(2).MustTable("Log"))
}

// TestDecodedCellsOutliveThePayload pins that decoding copies: the
// scanner reuses one payload buffer across records, so a string cell that
// aliased it would change when the next record is read.
func TestDecodedCellsOutliveThePayload(t *testing.T) {
	payload := encodeRows([][]relation.Value{{relation.Int(1), relation.String("abc")}})
	got := relation.NewTable("T", "A", "B")
	if err := decodeRowBatch(payload, got); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 'z'
	}
	if v := got.Cell(0, 1); v != relation.String("abc") {
		t.Fatalf("cell read %v after the payload was overwritten", v)
	}
}

// TestZeroColumnRowsRefused pins the writers' side of decodeRowBatch's
// count check: rows without columns encode to no bytes, so they are
// refused rather than written and then lost as a "torn" record on Open.
func TestZeroColumnRowsRefused(t *testing.T) {
	db := relation.NewDatabase()
	empty := relation.NewTable("Empty")
	db.AddTable(empty)
	dir := t.TempDir()
	s, err := Create(dir, db)
	if err != nil {
		t.Fatalf("a zero-column table without rows must store: %v", err)
	}
	if err := s.AppendRows("Empty", [][]relation.Value{{}}); err == nil {
		t.Error("AppendRows accepted a zero-width row")
	}
	empty.Append()
	if _, err := Create(t.TempDir(), db); err == nil {
		t.Error("Create accepted a zero-column table with rows")
	}
}
