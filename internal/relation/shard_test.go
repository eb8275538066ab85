package relation

import "testing"

func shardFixture() *Table {
	t := NewTable("Log", "Lid", "User")
	for i := 0; i < 6; i++ {
		t.Append(Int(int64(i+1)), Int(int64(100+i)))
	}
	return t
}

func TestConcatRebuildsOriginal(t *testing.T) {
	tbl := shardFixture()
	a, b := NewTable("A", tbl.Columns()...), NewTable("B", tbl.Columns()...)
	a.AppendRows([][]Value{tbl.Row(0), tbl.Row(2), tbl.Row(4)})
	b.AppendRows([][]Value{tbl.Row(1), tbl.Row(3), tbl.Row(5)})
	got, err := Concat("Log", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tbl.NumRows() {
		t.Fatalf("concat has %d rows, want %d", got.NumRows(), tbl.NumRows())
	}
	for i, want := range []int64{1, 3, 5, 2, 4, 6} {
		if lid := got.Get(i, "Lid").AsInt(); lid != want {
			t.Errorf("row %d: Lid = %d, want %d", i, lid, want)
		}
	}
}

func TestConcatSchemaMismatch(t *testing.T) {
	a := NewTable("A", "Lid", "User")
	b := NewTable("B", "Lid", "Patient")
	if _, err := Concat("Log", a, b); err == nil {
		t.Error("mismatched column names accepted")
	}
	c := NewTable("C", "Lid")
	if _, err := Concat("Log", a, c); err == nil {
		t.Error("mismatched column counts accepted")
	}
	if _, err := Concat("Log"); err == nil {
		t.Error("zero tables accepted")
	}
}
