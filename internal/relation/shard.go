package relation

import "fmt"

// Concat returns a new table named name holding the rows of every input
// table appended in order — the single-log view of a set of shard logs. All
// inputs must share exactly the same column list (same names, same order);
// a mismatch is reported as an error because federated inputs come from
// outside the process. Rows are shared, not copied. Concat of zero tables is
// an error (there is no schema to adopt).
func Concat(name string, tables ...*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("relation: Concat %q needs at least one table", name)
	}
	first := tables[0]
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
		}
		total += len(t.rows)
	}
	out := NewTable(name, first.columns...)
	out.rows = make([][]Value, 0, total)
	for _, t := range tables {
		out.rows = append(out.rows, t.rows...)
	}
	return out, nil
}
