package relation_test

import (
	"testing"

	"repro/internal/ehr"
	"repro/internal/obs"
	"repro/internal/relation"
)

// TestNumDistinctMatchesIndex pins NumDistinct to the number of keys of
// Index on every column of the Tiny hospital's tables, of a table whose
// string and int columns hold nulls, of a column holding only nulls and of
// an empty table — and pins that counting builds no index.
func TestNumDistinctMatchesIndex(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	notes := relation.NewTable("Notes", "Author", "Score", "Blank")
	notes.Append(relation.String("a"), relation.Int(1), relation.Null())
	notes.Append(relation.Null(), relation.Int(1), relation.Null())
	notes.Append(relation.String("b"), relation.Null(), relation.Null())
	notes.Append(relation.String(""), relation.Int(0), relation.Null())
	notes.Append(relation.String("a"), relation.Int(2), relation.Null())
	tables := []*relation.Table{notes, relation.NewTable("Empty", "A")}
	strings := 0
	for _, name := range ds.DB.TableNames() {
		tb := ds.DB.MustTable(name)
		tables = append(tables, tb)
		for c := range tb.Columns() {
			if tb.ColumnKind(c) == relation.KindString {
				strings++
			}
		}
	}
	if strings == 0 {
		t.Fatal("no Tiny table has a string column")
	}
	builds := obs.Default.Counter("relation.index_builds")
	for _, tb := range tables {
		for _, col := range tb.Columns() {
			n0 := builds.Value()
			got := tb.NumDistinct(col)
			if n := builds.Value() - n0; n != 0 {
				t.Errorf("%s.%s: NumDistinct built %d indexes", tb.Name(), col, n)
			}
			if want := len(tb.Index(col)); got != want {
				t.Errorf("%s.%s: NumDistinct = %d, Index has %d keys", tb.Name(), col, got, want)
			}
		}
	}
}
