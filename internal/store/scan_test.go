package store

import (
	"iter"
	"os"
	"testing"

	"repro/internal/relation"
)

// scanBatches drives the segment scanner readSegment drains: one table per
// checksummed record, holding its rows, in write order, stopping cleanly at
// a torn tail. A scan that cannot start, or a record it refuses, yields a
// single (nil, error) pair.
func scanBatches(s *Store, table string) iter.Seq2[*relation.Table, error] {
	return func(yield func(*relation.Table, error) bool) {
		sc, err := openSegScanner(s.segPath(table))
		if err != nil {
			if sc != nil {
				sc.close()
			}
			yield(nil, err)
			return
		}
		defer sc.close()
		for {
			batch := sc.newTable(table)
			ok, err := sc.next(batch)
			if err != nil {
				yield(nil, err)
				return
			}
			if !ok || !yield(batch, nil) {
				return
			}
		}
	}
}

// bigLogDB builds a single-table database whose Log spans several batch
// records, so a scan yields a multi-record sequence.
func bigLogDB(rows int) *relation.Database {
	db := relation.NewDatabase()
	log := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
	for i := 0; i < rows; i++ {
		log.Append(logRow(int64(i + 1))...)
	}
	db.AddTable(log)
	return db
}

// TestScanBatchesRoundTrip pins the segment scanner to the segment's
// contents: batches arrive in write order, each bulk batch holds at most
// segBatchRows rows, appended records surface as their own batches, and
// the concatenation reproduces the table Open loads.
func TestScanBatchesRoundTrip(t *testing.T) {
	const rows = 2*segBatchRows + 123
	db := bigLogDB(rows)
	dir := t.TempDir()
	s, err := Create(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRows("Log", [][]relation.Value{logRow(rows + 1), logRow(rows + 2)}); err != nil {
		t.Fatal(err)
	}

	var sizes []int
	got := relation.NewTable("Log", db.MustTable("Log").Columns()...)
	for batch, err := range scanBatches(s, "Log") {
		if err != nil {
			t.Fatalf("scan error: %v", err)
		}
		if batch.NumRows() > segBatchRows {
			t.Fatalf("batch of %d rows exceeds segBatchRows = %d", batch.NumRows(), segBatchRows)
		}
		sizes = append(sizes, batch.NumRows())
		got.AppendTable(batch)
	}
	wantSizes := []int{segBatchRows, segBatchRows, 123, 2}
	if len(sizes) != len(wantSizes) {
		t.Fatalf("batch sizes %v, want %v", sizes, wantSizes)
	}
	for i := range sizes {
		if sizes[i] != wantSizes[i] {
			t.Fatalf("batch sizes %v, want %v", sizes, wantSizes)
		}
	}

	_, opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, got, opened.MustTable("Log"))
}

// TestScanBatchesTornTail verifies WAL semantics on the scanner: a segment
// cut mid-record yields the checksum-valid prefix and ends cleanly, without
// surfacing an error.
func TestScanBatchesTornTail(t *testing.T) {
	db := bigLogDB(segBatchRows + 50)
	dir := t.TempDir()
	s, err := Create(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(s.segPath("Log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(s.segPath("Log"), info.Size()-7); err != nil {
		t.Fatal(err)
	}

	total := 0
	for batch, err := range scanBatches(s, "Log") {
		if err != nil {
			t.Fatalf("torn tail surfaced an error: %v", err)
		}
		total += batch.NumRows()
	}
	if total != segBatchRows {
		t.Fatalf("torn scan yielded %d rows, want the %d of the intact record", total, segBatchRows)
	}
}

// TestScanBatchesErrors pins the terminal-error contract: missing and
// headerless segments yield exactly one (nil, error) pair.
func TestScanBatchesErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, testDB())
	if err != nil {
		t.Fatal(err)
	}
	for name, breakSeg := range map[string]func(){
		"missing segment": func() {},
		"not a segment": func() {
			if err := os.WriteFile(s.segPath("Events"), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		breakSeg()
		table := "Nope"
		if name == "not a segment" {
			table = "Events"
		}
		yields, errs := 0, 0
		for batch, err := range scanBatches(s, table) {
			yields++
			if err != nil {
				errs++
			}
			if err == nil && batch == nil {
				t.Errorf("%s: yielded nil batch without error", name)
			}
		}
		if yields != 1 || errs != 1 {
			t.Errorf("%s: %d yields, %d errors, want exactly one error pair", name, yields, errs)
		}
	}
}

// TestScanBatchesEarlyBreak verifies pull semantics: breaking after the
// first batch stops the scan without draining the segment.
func TestScanBatchesEarlyBreak(t *testing.T) {
	db := bigLogDB(3 * segBatchRows)
	dir := t.TempDir()
	s, err := Create(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for _, err := range scanBatches(s, "Log") {
		if err != nil {
			t.Fatal(err)
		}
		batches++
		break
	}
	if batches != 1 {
		t.Fatalf("early break consumed %d batches, want 1", batches)
	}
}
