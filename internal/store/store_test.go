package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// rows returns the named table's manifest row watermark, or -1 if the store
// has no such table.
func (s *Store) rows(table string) int {
	for _, mt := range s.man.Tables {
		if mt.Name == table {
			return mt.Rows
		}
	}
	return -1
}

// testDB builds a small two-table database: an append-only Log and an
// Events table exercising every value kind, the null sentinel family, and
// non-ASCII strings.
func testDB() *relation.Database {
	db := relation.NewDatabase()
	log := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
	for i := 0; i < 5; i++ {
		log.Append(relation.Int(int64(i+1)), relation.Date(i%7), relation.Int(int64(100+i)), relation.Int(int64(10+i)))
	}
	db.AddTable(log)
	ev := relation.NewTable("Events", "Id", "Name", "Note")
	ev.Append(relation.Int(1), relation.String(`\N`), relation.Null())
	ev.Append(relation.Int(2), relation.String("héllo, \"wörld\"\nline"), relation.String(""))
	ev.Append(relation.Int(-3), relation.Null(), relation.String("plain"))
	db.AddTable(ev)
	return db
}

func logRow(lid int64) []relation.Value {
	return []relation.Value{relation.Int(lid), relation.Date(int(lid) % 7), relation.Int(100 + lid), relation.Int(10 + lid)}
}

func tablesEqual(t *testing.T, got, want *relation.Table) {
	t.Helper()
	if gc, wc := got.Columns(), want.Columns(); len(gc) != len(wc) {
		t.Fatalf("columns %v, want %v", gc, wc)
	} else {
		for i := range gc {
			if gc[i] != wc[i] {
				t.Fatalf("columns %v, want %v", gc, wc)
			}
		}
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := range want.Columns() {
			if got.Row(r)[c] != want.Row(r)[c] {
				t.Errorf("row %d col %d: %v != %v", r, c, got.Row(r)[c], want.Row(r)[c])
			}
		}
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	db := testDB()
	dir := t.TempDir()
	if _, err := Create(dir, db); err != nil {
		t.Fatal(err)
	}
	s, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := got.TableNames()
	if len(names) != 2 || names[0] != "Log" || names[1] != "Events" {
		t.Fatalf("table order %v", names)
	}
	// Registration order is preserved, so the reopened database's schema
	// version (one AddTable per table) is deterministic across processes —
	// the property warm-start snapshot validation rests on.
	if got.SchemaVersion() != 2 {
		t.Fatalf("SchemaVersion = %d, want 2", got.SchemaVersion())
	}
	for _, name := range names {
		tablesEqual(t, got.MustTable(name), db.MustTable(name))
	}
	if s.rows("Log") != 5 || s.rows("Events") != 3 || s.rows("Nope") != -1 {
		t.Fatalf("watermarks: Log=%d Events=%d Nope=%d", s.rows("Log"), s.rows("Events"), s.rows("Nope"))
	}
}

func TestOpenErrors(t *testing.T) {
	if _, _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("Open of a missing directory succeeded")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Error("Open of a garbage manifest succeeded")
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, ManifestName), []byte(`{"format":99,"tables":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir2); err == nil {
		t.Error("Open of a future manifest format succeeded")
	}
}

func TestAppendRows(t *testing.T) {
	db := testDB()
	dir := t.TempDir()
	s, err := Create(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRows("Log", nil); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	if err := s.AppendRows("Log", [][]relation.Value{logRow(6), logRow(7), logRow(8)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRows("Log", [][]relation.Value{logRow(9)}); err != nil {
		t.Fatal(err)
	}
	if s.rows("Log") != 9 {
		t.Fatalf("watermark = %d, want 9", s.rows("Log"))
	}
	if err := s.AppendRows("Nope", [][]relation.Value{{relation.Int(1)}}); err == nil {
		t.Error("append to unknown table succeeded")
	}
	if err := s.AppendRows("Log", [][]relation.Value{{relation.Int(1)}}); err == nil {
		t.Error("ragged append succeeded")
	}

	_, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := db.MustTable("Log")
	for lid := int64(6); lid <= 9; lid++ {
		want.Append(logRow(lid)...)
	}
	tablesEqual(t, got.MustTable("Log"), want)
}

// segRecords walks the framed records of a segment file and returns, for
// each record (header first), the byte offset just past it, plus the row
// count each data record declares. It is an independent re-derivation of
// the format used to compute ground truth for the corruption suite.
func segRecords(t *testing.T, path string) (ends []int64, rows []int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(segMagic))
	first := true
	for off < int64(len(data)) {
		size := int64(binary.LittleEndian.Uint32(data[off:]))
		off += 8 + size
		ends = append(ends, off)
		if first {
			first = false
			continue
		}
		n, _ := binary.Uvarint(data[off-size:])
		rows = append(rows, int(n))
	}
	return ends, rows
}

// copyStore clones a store directory so each corruption case mutates a
// fresh copy.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestTornTailRecovery is the crash suite: a Log segment cut at EVERY byte
// offset must either fail to open (the tear reaches the header, without
// which nothing is interpretable) or recover exactly the rows of the
// records that survived whole — and a recovered store must reopen
// identically (recovery is idempotent, like WAL replay).
func TestTornTailRecovery(t *testing.T) {
	db := testDB()
	src := t.TempDir()
	s, err := Create(src, db)
	if err != nil {
		t.Fatal(err)
	}
	// Three data records (5+3+2 rows) so mid-file tears land between
	// records as well as inside them.
	if err := s.AppendRows("Log", [][]relation.Value{logRow(6), logRow(7), logRow(8)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRows("Log", [][]relation.Value{logRow(9), logRow(10)}); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(src, "Log.seg")
	ends, recRows := segRecords(t, seg)
	fullSize := ends[len(ends)-1]
	headerEnd := ends[0]

	fullLog := db.MustTable("Log").Clone("Log")
	for lid := int64(6); lid <= 10; lid++ {
		fullLog.Append(logRow(lid)...)
	}

	// rowsAt returns how many leading rows survive a cut at offset k, and
	// the offset recovery should truncate back to.
	rowsAt := func(k int64) (int, int64) {
		n, valid := 0, headerEnd
		for i, end := range ends[1:] {
			if end <= k {
				n += recRows[i]
				valid = end
			}
		}
		return n, valid
	}

	for k := int64(0); k <= fullSize; k++ {
		dir := copyStore(t, src)
		if err := os.Truncate(filepath.Join(dir, "Log.seg"), k); err != nil {
			t.Fatal(err)
		}
		_, got, err := Open(dir)
		if k < headerEnd {
			if err == nil {
				t.Fatalf("cut at %d (inside header): Open succeeded", k)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", k, err)
		}
		wantRows, wantValid := rowsAt(k)
		log := got.MustTable("Log")
		if log.NumRows() != wantRows {
			t.Fatalf("cut at %d: recovered %d rows, want %d", k, log.NumRows(), wantRows)
		}
		for r := 0; r < wantRows; r++ {
			for c := range fullLog.Columns() {
				if log.Row(r)[c] != fullLog.Row(r)[c] {
					t.Fatalf("cut at %d row %d col %d: %v != %v", k, r, c, log.Row(r)[c], fullLog.Row(r)[c])
				}
			}
		}
		st, err := os.Stat(filepath.Join(dir, "Log.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != wantValid {
			t.Fatalf("cut at %d: file truncated to %d, want %d", k, st.Size(), wantValid)
		}
		// Idempotence: a recovered store reopens to the same state.
		_, again, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d reopen: %v", k, err)
		}
		if again.MustTable("Log").NumRows() != wantRows {
			t.Fatalf("cut at %d reopen: %d rows, want %d", k, again.MustTable("Log").NumRows(), wantRows)
		}
	}
}

// TestCorruptRecordRecovery flips one byte inside each data record: the
// scan must stop at the last record before the corruption (a checksum
// failure is indistinguishable from a tear), while a flipped header or
// magic is a hard error.
func TestCorruptRecordRecovery(t *testing.T) {
	db := testDB()
	src := t.TempDir()
	s, err := Create(src, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRows("Log", [][]relation.Value{logRow(6), logRow(7)}); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(src, "Log.seg")
	ends, recRows := segRecords(t, seg)

	flipAt := func(dir string, off int64) {
		path := filepath.Join(dir, "Log.seg")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Data records: corrupting record i keeps exactly the rows before it.
	for i := 1; i < len(ends); i++ {
		dir := copyStore(t, src)
		flipAt(dir, ends[i]-1) // last payload byte of record i
		_, got, err := Open(dir)
		if err != nil {
			t.Fatalf("record %d corrupt: %v", i, err)
		}
		want := 0
		for _, n := range recRows[:i-1] {
			want += n
		}
		if got.MustTable("Log").NumRows() != want {
			t.Errorf("record %d corrupt: %d rows, want %d", i, got.MustTable("Log").NumRows(), want)
		}
	}

	// Header record: unrecoverable.
	dir := copyStore(t, src)
	flipAt(dir, ends[0]-1)
	if _, _, err := Open(dir); err == nil {
		t.Error("corrupt header: Open succeeded")
	}
	// Magic: not a segment at all.
	dir = copyStore(t, src)
	flipAt(dir, 0)
	if _, _, err := Open(dir); err == nil {
		t.Error("corrupt magic: Open succeeded")
	}
}

func testWarmState(db *relation.Database) *WarmState {
	m0 := bitset.FromBools([]bool{true, false, false, true, false})
	m1 := bitset.FromBools([]bool{false, false, false, false, true})
	return &WarmState{
		LogTable: "Log",
		Masks: []MaskState{
			{Template: "t-alpha", Rows: 5, HistRows: 5, Bits: m0},
			{Template: "t-beta", Rows: 5, HistRows: 5, Bits: m1},
		},
	}
}

func TestWarmStateRoundTrip(t *testing.T) {
	db := testDB()
	dir := t.TempDir()
	s, err := Create(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadWarmState(db); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("fresh store: err = %v, want ErrNoSnapshot", err)
	}
	ws := testWarmState(db)
	if err := s.SaveWarmState(db, ws); err != nil {
		t.Fatal(err)
	}
	if ws.SchemaVersion != db.SchemaVersion() || ws.LogRows != 5 {
		t.Fatalf("stamped SchemaVersion=%d LogRows=%d", ws.SchemaVersion, ws.LogRows)
	}
	got, err := s.LoadWarmState(db)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != ws.SchemaVersion || got.LogTable != "Log" || got.LogRows != 5 {
		t.Fatalf("loaded header %+v", got)
	}
	if len(got.Masks) != 2 {
		t.Fatalf("masks %d", len(got.Masks))
	}
	for i, m := range got.Masks {
		w := ws.Masks[i]
		if m.Template != w.Template || m.Rows != w.Rows || m.HistRows != w.HistRows {
			t.Errorf("mask %d header %+v, want %+v", i, m, w)
		}
		if m.Bits.Len() != w.Bits.Len() || m.Bits.Count() != w.Bits.Count() {
			t.Errorf("mask %d bits differ", i)
		}
		for b := 0; b < w.Bits.Len(); b++ {
			if m.Bits.Get(b) != w.Bits.Get(b) {
				t.Errorf("mask %d bit %d differs", i, b)
			}
		}
	}

	// Log growth after the snapshot keeps it valid: the log watermark is a
	// resume point, not a fingerprint.
	db.MustTable("Log").Append(logRow(6)...)
	if _, err := s.LoadWarmState(db); err != nil {
		t.Fatalf("after log growth: %v", err)
	}
}

// TestWarmStateOldFormatIsStale writes, for the store's own database, a
// snapshot in the EBWRM01 layout, which listed plan-cache keys between the
// log watermark and the masks: it must load as ErrStaleSnapshot, while the
// same state in the current layout loads.
func TestWarmStateOldFormatIsStale(t *testing.T) {
	db := testDB()
	dir := t.TempDir()
	s, err := Create(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	ws := testWarmState(db)
	ws.SchemaVersion, ws.LogRows = db.SchemaVersion(), db.MustTable("Log").NumRows()
	fp := fingerprint(db, ws.LogTable)
	head := binary.AppendUvarint(nil, ws.SchemaVersion)
	head = binary.LittleEndian.AppendUint64(head, fp)
	head = appendString(head, ws.LogTable)
	head = binary.AppendUvarint(head, uint64(ws.LogRows))
	payload := encodeWarmState(ws, fp)
	old := binary.AppendUvarint(append([]byte(nil), head...), 2)
	old = appendString(appendString(old, "k1|a"), "k2|b")
	old = append(old, payload[len(head):]...)

	snap := filepath.Join(dir, snapshotName)
	for _, c := range []struct {
		name  string
		data  []byte
		stale bool
	}{
		{"EBWRM01", appendRecord([]byte("EBWRM01\n"), old), true},
		{"current", frameSnapshot(payload), false},
	} {
		if err := os.WriteFile(snap, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadWarmState(db)
		if c.stale && !errors.Is(err, ErrStaleSnapshot) {
			t.Errorf("%s layout: err = %v, want ErrStaleSnapshot", c.name, err)
		}
		if !c.stale && (err != nil || len(got.Masks) != len(ws.Masks)) {
			t.Errorf("%s layout: err = %v, want %d masks", c.name, err, len(ws.Masks))
		}
	}
}

func TestWarmStateStaleness(t *testing.T) {
	build := func(eventRows, logRows int) *relation.Database {
		db := relation.NewDatabase()
		log := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
		for i := 0; i < logRows; i++ {
			log.Append(logRow(int64(i + 1))...)
		}
		db.AddTable(log)
		ev := relation.NewTable("Events", "Id", "Name", "Note")
		for i := 0; i < eventRows; i++ {
			ev.Append(relation.Int(int64(i)), relation.String("e"), relation.Null())
		}
		db.AddTable(ev)
		return db
	}

	db := build(3, 5)
	dir := t.TempDir()
	s, err := Create(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveWarmState(db, &WarmState{LogTable: "Log"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadWarmState(db); err != nil {
		t.Fatalf("same db: %v", err)
	}

	// A schema mutation after the save (AddTable, including replacement —
	// the Groups-retraining case) makes the snapshot stale.
	mutated := build(3, 5)
	mutated.AddTable(relation.NewTable("Extra", "X"))
	if _, err := s.LoadWarmState(mutated); !errors.Is(err, ErrStaleSnapshot) {
		t.Errorf("schema mutation: err = %v, want ErrStaleSnapshot", err)
	}

	// An event table of a different size under the same schema-version
	// arithmetic: caught by the fingerprint.
	if _, err := s.LoadWarmState(build(4, 5)); !errors.Is(err, ErrStaleSnapshot) {
		t.Errorf("event growth: err = %v, want ErrStaleSnapshot", err)
	}

	// A log shorter than the snapshot's watermark describes rows that no
	// longer exist.
	if _, err := s.LoadWarmState(build(3, 2)); !errors.Is(err, ErrStaleSnapshot) {
		t.Errorf("log shrank: err = %v, want ErrStaleSnapshot", err)
	}

	// Log growth alone stays valid.
	if _, err := s.LoadWarmState(build(3, 9)); err != nil {
		t.Errorf("log grew: %v", err)
	}

	// Corruption: every truncation of the snapshot file, and a flipped
	// byte, must read as stale — never a partial warm state.
	snap := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(data); k++ {
		if err := os.WriteFile(snap, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadWarmState(db); !errors.Is(err, ErrStaleSnapshot) {
			t.Fatalf("truncated at %d: err = %v, want ErrStaleSnapshot", k, err)
		}
	}
	for k := 0; k < len(data); k++ {
		bad := append([]byte(nil), data...)
		bad[k] ^= 0x01
		if err := os.WriteFile(snap, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadWarmState(db); err == nil {
			// A flip confined to a mask's HistRows (or similar) can survive
			// only if the checksum misses it, which cannot happen: CRC32
			// catches all single-byte errors.
			t.Fatalf("flipped byte %d: snapshot loaded", k)
		}
	}

	// Recreating the store must drop the old snapshot rather than let it
	// describe contents it never saw.
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, db); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadWarmState(db); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("after recreate: err = %v, want ErrNoSnapshot", err)
	}

	// SaveWarmState with an unknown log table is a caller bug, not a write.
	if err := s.SaveWarmState(db, &WarmState{LogTable: "Nope"}); err == nil {
		t.Error("SaveWarmState with unknown log table succeeded")
	}
}
