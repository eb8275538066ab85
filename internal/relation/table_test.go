package relation

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("Appointments", "Patient", "Date", "Doctor")
	t.Append(Int(1), Date(0), Int(10))
	t.Append(Int(1), Date(1), Int(10)) // same pair, different date
	t.Append(Int(1), Date(0), Int(11))
	t.Append(Int(2), Date(2), Int(10))
	t.Append(Int(3), Date(3), Int(12))
	return t
}

func TestTableBasics(t *testing.T) {
	tb := sampleTable()
	if tb.Name() != "Appointments" {
		t.Errorf("Name() = %q", tb.Name())
	}
	if got := tb.NumRows(); got != 5 {
		t.Errorf("NumRows() = %d, want 5", got)
	}
	if got, want := tb.Columns(), []string{"Patient", "Date", "Doctor"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Columns() = %v, want %v", got, want)
	}
	if i, ok := tb.ColumnIndex("Doctor"); !ok || i != 2 {
		t.Errorf("ColumnIndex(Doctor) = %d,%v", i, ok)
	}
	if _, ok := tb.ColumnIndex("Nope"); ok {
		t.Error("ColumnIndex(Nope) reported ok")
	}
	if !tb.HasColumn("Date") || tb.HasColumn("Nope") {
		t.Error("HasColumn wrong")
	}
	if got := tb.Get(3, "Patient"); got != Int(2) {
		t.Errorf("Get(3, Patient) = %v", got)
	}
}

func TestTablePanicsOnSchemaErrors(t *testing.T) {
	assertPanics(t, "duplicate column", func() { NewTable("T", "A", "A") })
	assertPanics(t, "short row", func() { sampleTable().Append(Int(1)) })
	assertPanics(t, "missing column Get", func() { sampleTable().Get(0, "Nope") })
	assertPanics(t, "missing column Index", func() { sampleTable().Index("Nope") })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestIndex(t *testing.T) {
	tb := sampleTable()
	idx := tb.Index("Patient")
	if got := idx[Int(1)]; !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("index[1] = %v", got)
	}
	if got := idx[Int(3)]; !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("index[3] = %v", got)
	}
	if _, ok := idx[Int(99)]; ok {
		t.Error("index contains absent value")
	}
	// No cache: each call builds its own map, so editing one leaves the
	// next call's untouched.
	idx[Int(99)] = []int{1}
	if _, ok := tb.Index("Patient")[Int(99)]; ok {
		t.Error("Index returned a map an earlier call handed out")
	}
}

func TestIndexInvalidatedByAppend(t *testing.T) {
	tb := sampleTable()
	_ = tb.Index("Patient")
	tb.Append(Int(9), Date(0), Int(10))
	idx := tb.Index("Patient")
	if got := idx[Int(9)]; !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("index not rebuilt after Append: %v", got)
	}
}

func TestDistinctValuesAndNumDistinct(t *testing.T) {
	tb := sampleTable()
	vals := slices.Collect(maps.Keys(tb.Index("Doctor")))
	slices.SortFunc(vals, Value.Compare)
	if want := []Value{Int(10), Int(11), Int(12)}; !reflect.DeepEqual(vals, want) {
		t.Errorf("distinct Doctor values = %v, want %v", vals, want)
	}
	if got := tb.NumDistinct("Patient"); got != 3 {
		t.Errorf("NumDistinct(Patient) = %d", got)
	}
}

func TestFilterAndClone(t *testing.T) {
	tb := sampleTable()
	f := tb.Filter("sub", func(r int) bool { return tb.Cell(r, 0) == Int(1) })
	if f.NumRows() != 3 || f.Name() != "sub" {
		t.Errorf("Filter: rows=%d name=%q", f.NumRows(), f.Name())
	}
	c := tb.Clone("copy")
	if c.NumRows() != tb.NumRows() {
		t.Errorf("Clone rows = %d", c.NumRows())
	}
	// Appending to the clone must not affect the original.
	c.Append(Int(7), Date(0), Int(10))
	if tb.NumRows() != 5 {
		t.Error("Clone shares row storage with original")
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	tb := sampleTable()
	db.AddTable(tb)
	if !db.HasTable("Appointments") || db.HasTable("Nope") {
		t.Error("HasTable wrong")
	}
	if db.Table("Appointments") != tb {
		t.Error("Table returned wrong table")
	}
	if db.Table("Nope") != nil {
		t.Error("Table(Nope) != nil")
	}
	if db.MustTable("Appointments") != tb {
		t.Error("MustTable returned wrong table")
	}
	assertPanics(t, "MustTable missing", func() { db.MustTable("Nope") })

	// Replacement keeps registration order and count.
	repl := sampleTable()
	db.AddTable(repl)
	if got := db.TableNames(); !reflect.DeepEqual(got, []string{"Appointments"}) {
		t.Errorf("TableNames = %v", got)
	}
	if db.Table("Appointments") != repl {
		t.Error("AddTable did not replace")
	}
	if s := db.Summary(); len(s) != 1 {
		t.Errorf("Summary = %v", s)
	}
}

// TestConcurrentIndexBuild races many goroutines through the index builder
// of one table (run under -race): reads share the table without writing to
// it, and every caller must observe an equal map.
func TestConcurrentIndexBuild(t *testing.T) {
	tb := NewTable("Events", "Patient", "Doctor")
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		tb.Append(Int(int64(rng.Intn(40))), Int(int64(rng.Intn(12))))
	}

	const workers = 8
	indexes := make([]map[Value][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			indexes[w] = tb.Index("Patient")
			if tb.NumDistinct("Doctor") == 0 {
				t.Error("NumDistinct = 0")
			}
		}(w)
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(indexes[w], indexes[0]) {
			t.Fatalf("worker %d observed a different Patient index", w)
		}
	}
}

// TestAppendRows pins the bulk append: the version advances one step per
// row, an index built after the call covers every row,
// and the table copies the values it is handed into its columns.
func TestAppendRows(t *testing.T) {
	tb := sampleTable()
	v0, n0 := tb.Version(), tb.NumRows()

	rows := [][]Value{{Int(4), Date(4), Int(13)}, {Int(1), Date(5), Int(13)}, {Int(4), Date(6), Int(13)}}
	tb.AppendRows(rows)
	if got := tb.Version(); got != v0+uint64(len(rows)) {
		t.Errorf("Version = %d after appending %d rows at %d", got, len(rows), v0)
	}
	if got := tb.AppendVersion(); got != uint64(tb.NumRows()) {
		t.Errorf("AppendVersion = %d, want the row count %d", got, tb.NumRows())
	}
	rows[0][0] = Int(99)
	if got := tb.Cell(n0, 0); got != Int(4) {
		t.Errorf("editing a row after AppendRows changed the table's cell to %v", got)
	}
	if got := tb.Index("Patient")[Int(4)]; !reflect.DeepEqual(got, []int{n0, n0 + 2}) {
		t.Errorf("Index(Patient)[4] = %v, want rows %d and %d", got, n0, n0+2)
	}

	tb.AppendRows(nil)
	if got := tb.Version(); got != v0+uint64(len(rows)) {
		t.Errorf("appending no rows moved the version to %d", got)
	}
}

// TestAppendRowsWrongWidth pins the all-or-nothing check: a wrong-width row
// anywhere in the batch panics before any row is added or the version
// moves.
func TestAppendRowsWrongWidth(t *testing.T) {
	tb := sampleTable()
	v0, n0 := tb.Version(), tb.NumRows()
	assertPanics(t, "wrong-width row", func() {
		tb.AppendRows([][]Value{{Int(4), Date(4), Int(13)}, {Int(5), Date(5)}})
	})
	if tb.NumRows() != n0 || tb.Version() != v0 {
		t.Errorf("after the panic: %d rows at version %d, want %d at %d", tb.NumRows(), tb.Version(), n0, v0)
	}
}

// TestColumnKinds pins the typed layout's rules: the first non-null value
// appended declares an undeclared column's kind, a value of another kind
// panics before any row is added, a column of nulls takes a kind later
// with its earlier cells still null, and Declare refuses to change a kind.
func TestColumnKinds(t *testing.T) {
	tb := NewTable("T", "A", "B", "C")
	tb.Append(Int(1), Null(), Null())
	tb.Append(Null(), Null(), Date(4))
	if got := []Kind{tb.ColumnKind(0), tb.ColumnKind(1), tb.ColumnKind(2)}; !slices.Equal(got, []Kind{KindInt, KindNull, KindDate}) {
		t.Fatalf("kinds = %v", got)
	}
	assertPanics(t, "a string in an int column", func() { tb.Append(String("x"), Null(), Null()) })
	assertPanics(t, "an int in a date column", func() { tb.AppendRows([][]Value{{Int(2), Null(), Date(5)}, {Int(3), Null(), Int(5)}}) })
	if tb.NumRows() != 2 || tb.Version() != 2 {
		t.Fatalf("after the rejected appends: %d rows at version %d, want 2 at 2", tb.NumRows(), tb.Version())
	}
	tb.Append(Int(3), String("late"), Null())
	want := [][]Value{{Int(1), Null(), Null()}, {Null(), Null(), Date(4)}, {Int(3), String("late"), Null()}}
	for r, row := range want {
		if got := tb.Row(r); !slices.Equal(got, row) {
			t.Errorf("row %d = %v, want %v", r, got, row)
		}
	}
	assertPanics(t, "redeclaring a column", func() { tb.Declare(0, KindString) })
	tb.Declare(0, KindInt) // its own kind: no-op
	if got := tb.Find(0, Int(3)); !slices.Equal(got, []int{2}) {
		t.Errorf("Find(A, 3) = %v", got)
	}
	if got := tb.Find(2, Null()); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("Find(C, NULL) = %v", got)
	}
	if got := tb.Find(2, Int(4)); got != nil {
		t.Errorf("Find(C, Int 4) = %v in a date column, want none", got)
	}
}

// TestStagedCells pins the decoder's append path: staged cells are
// invisible until CommitRows, DiscardRows drops them, and a commit whose
// columns disagree on the row count panics.
func TestStagedCells(t *testing.T) {
	tb := NewTable("T", "I", "S")
	tb.Declare(0, KindInt)
	tb.Declare(1, KindString)
	tb.AppendInt(0, 7)
	tb.AppendString(1, "a")
	tb.CommitRows(1)
	tb.AppendNull(0)
	tb.AppendString(1, "b")
	if tb.NumRows() != 1 {
		t.Fatalf("staged row visible: %d rows", tb.NumRows())
	}
	tb.DiscardRows()
	tb.AppendInt(0, 8)
	assertPanics(t, "ragged commit", func() { tb.CommitRows(1) })
	tb.AppendNull(1)
	tb.CommitRows(1)
	if got := tb.Row(1); !slices.Equal(got, []Value{Int(8), Null()}) {
		t.Errorf("row 1 = %v after a discard and a commit", got)
	}
	if got := tb.Cell(1, 0); got != Int(8) {
		t.Errorf("discarded null left behind: %v", got)
	}
}
