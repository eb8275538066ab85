package relation

import "fmt"

// Concat returns a new table named name holding the rows of every input
// table appended in order — the single-log view of a set of shard logs. All
// inputs must share exactly the same column list (same names, same order)
// and, column by column, one kind (a column still undeclared in a table
// matches any); a mismatch is reported as an error because federated
// inputs come from outside the process. The cells are copied. Concat of
// zero tables is an error (there is no schema to adopt).
func Concat(name string, tables ...*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("relation: Concat %q needs at least one table", name)
	}
	first := tables[0]
	out := first.empty(name)
	total := 0
	for _, t := range tables {
		if len(t.columns) != len(first.columns) {
			return nil, fmt.Errorf("relation: Concat %q: table %q has %d columns, table %q has %d",
				name, t.name, len(t.columns), first.name, len(first.columns))
		}
		for i, c := range t.columns {
			if c != first.columns[i] {
				return nil, fmt.Errorf("relation: Concat %q: column %d is %q in table %q but %q in table %q",
					name, i, c, t.name, first.columns[i], first.name)
			}
			k := t.cols[i].kind
			if !compatible(out.cols[i].kind, k) {
				return nil, fmt.Errorf("relation: Concat %q: column %q holds %s values in table %q but %s values in an earlier table",
					name, c, KindName(k), t.name, KindName(out.cols[i].kind))
			}
			if k != KindNull {
				out.Declare(i, k) // out has no rows yet
			}
		}
		total += t.rows
	}
	out.Grow(total)
	for _, t := range tables {
		out.AppendTable(t)
	}
	return out, nil
}
