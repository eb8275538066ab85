package federate_test

import (
	"maps"
	"slices"

	"repro/internal/relation"
)

// selectRows builds a table holding t's rows at the given indexes, in that
// order: a shard log cut out of a whole one.
func selectRows(t *relation.Table, rows []int) *relation.Table {
	batch := make([][]relation.Value, len(rows))
	for i, r := range rows {
		batch[i] = t.Row(r)
	}
	out := relation.NewTable(t.Name(), t.Columns()...)
	out.AppendRows(batch)
	return out
}

// distinctValues returns the distinct values of a column, sorted.
func distinctValues(t *relation.Table, column string) []relation.Value {
	vals := slices.Collect(maps.Keys(t.Index(column)))
	slices.SortFunc(vals, relation.Value.Compare)
	return vals
}
