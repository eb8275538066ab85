package relation

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Table is an in-memory relation: a named list of columns and a list of rows.
// Rows are append-only; the engine never updates in place, which keeps the
// lazily built hash indexes valid for the lifetime of the table.
//
// # Concurrency and index invalidation
//
// A Table supports two phases. During the load phase, Append and AppendRows
// require exclusive access (no concurrent readers or writers); each call
// invalidates every cached index once, because row positions referenced by
// an index built earlier would otherwise go stale, so a bulk loader hands
// its rows over in batches with AppendRows. During the query phase, any
// number of goroutines may call the read-side methods (Row, Get, Index,
// NumDistinct, ...) concurrently: lazy index construction is serialized by
// an internal mutex, and a map returned by Index is immutable once
// published, so callers may read it without further locking. The contract is
// therefore "single-writer load, then many-reader query"; interleaving an
// append with concurrent reads is a data race on the row slice itself and is
// not supported.
type Table struct {
	name    string
	columns []string
	colIdx  map[string]int
	rows    [][]Value

	// mu serializes lazy construction and invalidation of the index cache
	// below; cache hits take only the read lock, so concurrent queries do not
	// contend once an index is built. Built index maps are never mutated after
	// being stored, so they can be returned and read outside the lock.
	mu sync.RWMutex

	// indexes maps a column index to a hash index over that column. Built
	// lazily by Index and invalidated by Append (appends drop indexes; all
	// workloads here are load-then-query). The query engine does not read
	// it: it walks dictionary IDs it derives from the rows.
	indexes map[int]map[Value][]int

	// version counts appended rows (the only mutation). Derived caches
	// built against the table — the lazy indexes above, but also the query
	// engine's interned columns and lowered forms, held outside the table —
	// use it to detect staleness: equal versions mean the rows have not
	// changed since the cache was built.
	version atomic.Uint64
}

// NewTable creates an empty table with the given column names. Column names
// must be unique; NewTable panics otherwise because a malformed schema is a
// programming error, not a runtime condition.
func NewTable(name string, columns ...string) *Table {
	t := &Table{
		name:    name,
		columns: append([]string(nil), columns...),
		colIdx:  make(map[string]int, len(columns)),
	}
	for i, c := range columns {
		if _, dup := t.colIdx[c]; dup {
			panic(fmt.Sprintf("relation: duplicate column %q in table %q", c, name))
		}
		t.colIdx[c] = i
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column names in declaration order. The returned slice
// must not be modified.
func (t *Table) Columns() []string { return t.columns }

// NumRows returns the number of rows in the table.
func (t *Table) NumRows() int { return len(t.rows) }

// ColumnIndex returns the position of the named column and whether it exists.
func (t *Table) ColumnIndex(name string) (int, bool) {
	i, ok := t.colIdx[name]
	return i, ok
}

// mustColumn returns the position of the named column and panics if the
// table has none: naming a missing column is a programming error.
func (t *Table) mustColumn(name string) int {
	i, ok := t.colIdx[name]
	if !ok {
		panic(fmt.Sprintf("relation: table %q has no column %q", t.name, name))
	}
	return i
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.colIdx[name]
	return ok
}

// Append adds a copy of row; it is AppendRows for one row, so the same
// width check, cache invalidation and concurrency contract apply.
func (t *Table) Append(row ...Value) {
	t.AppendRows([][]Value{slices.Clone(row)})
}

// AppendRows adds rows in order and invalidates all cached indexes (their
// row numbers and projections would be stale). The table takes ownership
// of the row slices without copying them, so the caller must not modify
// them afterwards. Every row's length must match the number of columns; a
// mismatch panics before any row is added. The version advances by
// len(rows), one step per row, so AppendVersion stays equal to the row
// count of a table built only by appends. AppendRows requires exclusive
// access to the table; see the type comment for the concurrency contract.
func (t *Table) AppendRows(rows [][]Value) {
	for _, row := range rows {
		if len(row) != len(t.columns) {
			panic(fmt.Sprintf("relation: table %q expects %d values, got %d", t.name, len(t.columns), len(row)))
		}
	}
	if len(rows) == 0 {
		return
	}
	t.rows = append(t.rows, rows...)
	t.version.Add(uint64(len(rows)))
	t.mu.Lock()
	t.indexes = nil
	t.mu.Unlock()
}

// Version returns the table's mutation counter: it advances by one per
// appended row and never otherwise changes. External caches derived from
// the rows (such as the query engine's compiled-plan cache) compare
// versions to detect staleness.
func (t *Table) Version() uint64 { return t.version.Load() }

// AppendVersion returns the table's append watermark. A Table's only
// mutation is appending rows, so today this equals Version; the two names
// separate the *delta classes* external caches care about: an equal
// AppendVersion means no rows were added (projections built over the rows
// cover them all), while Version is the conservative any-change token.
// Derivations that can be extended in place — the auditor's per-template
// masks — watermark themselves with AppendVersion and, on a mismatch,
// re-derive only the suffix of rows appended since, rather than starting
// over.
// Destructive changes happen at the database level (AddTable replacement
// swaps the whole *Table), so a live Table's history is purely append-only.
func (t *Table) AppendVersion() uint64 { return t.version.Load() }

// Row returns the i-th row. The returned slice must not be modified.
func (t *Table) Row(i int) []Value { return t.rows[i] }

// Get returns the value of the named column in the i-th row.
func (t *Table) Get(i int, column string) Value {
	return t.rows[i][t.mustColumn(column)]
}

// Index returns a hash index from values of the named column to the row
// numbers holding that value. The index is built on first use and cached;
// concurrent callers are safe, and the returned map is immutable (callers
// must treat it as read-only).
func (t *Table) Index(column string) map[Value][]int {
	ci := t.mustColumn(column)
	t.mu.RLock()
	idx, ok := t.indexes[ci]
	t.mu.RUnlock()
	if ok {
		return idx
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.indexes == nil {
		t.indexes = make(map[int]map[Value][]int)
	}
	if idx, ok := t.indexes[ci]; ok {
		return idx
	}
	idx = make(map[Value][]int)
	for r, row := range t.rows {
		idx[row[ci]] = append(idx[row[ci]], r)
	}
	t.indexes[ci] = idx
	return idx
}

// NumDistinct returns the number of distinct values in the named column.
func (t *Table) NumDistinct(column string) int { return len(t.Index(column)) }

// Filter returns a new table containing the rows for which keep returns
// true. The new table shares no index state with the receiver.
func (t *Table) Filter(name string, keep func(row []Value) bool) *Table {
	out := NewTable(name, t.columns...)
	for _, row := range t.rows {
		if keep(row) {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// Clone returns a copy of the table (rows are shared; they are never
// mutated).
func (t *Table) Clone(name string) *Table {
	out := NewTable(name, t.columns...)
	out.rows = append(out.rows, t.rows...)
	return out
}
