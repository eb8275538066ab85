package relation

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/obs"
)

// indexBuilds counts the hash indexes Index has built (relation.index_builds
// in the process-wide registry): a point query that should read a column
// without indexing it can be checked against it.
var indexBuilds = obs.Default.Counter("relation.index_builds")

// Table is an in-memory relation: a named list of columns holding an
// append-only sequence of rows. Rows are stored by column, one typed array
// per column: an int or date column keeps its cells' payloads in an
// []int64, a string column in a []string, and a column that has held a null
// also keeps a null bitmap. A column has one kind. Load and the store
// declare it from their headers (Declare); otherwise the first non-null
// value appended sets it, and until then the column holds only nulls and no
// array. A non-null value of another kind is rejected: appending one
// panics, as a row of the wrong width does. The engine never updates in
// place. A table keeps no index: Index builds a fresh hash index on every
// call.
//
// Cells are read by column position, resolved once with ColumnIndex: Cell
// materialises one Value, Int reads an int or date payload without one,
// and Find scans a column for a value without building an index. Row
// materialises a whole row and is meant for tests and one-off reads.
//
// # Appending
//
// AppendRows (and Append for one row) take rows of Values. Decoders write
// typed cells instead: AppendInt, AppendString and AppendNull stage one
// cell at the end of a column, and CommitRows makes the next n staged rows
// of every column part of the table (DiscardRows drops staged cells
// instead). Readers see committed rows only.
//
// # Concurrency
//
// A Table supports two phases. During the load phase, appends require
// exclusive access (no concurrent readers or writers). During the query
// phase, any number of goroutines may call the read-side methods (Cell,
// Int, Find, Index, NumDistinct, ...) concurrently: none of them writes
// to the table. The contract is therefore "single-writer load, then
// many-reader query"; interleaving an append with concurrent reads is a
// data race on the column arrays and is not supported.
type Table struct {
	name    string
	columns []string
	colIdx  map[string]int
	cols    []column
	rows    int // committed rows; columns may hold staged cells past it

	// version counts appended rows (the only mutation). Derived caches
	// built against the table — the query engine's interned columns and
	// lowered forms, held outside the table — use it to detect staleness:
	// equal versions mean the rows have not changed since the cache was
	// built.
	version atomic.Uint64
}

// column is one column's cells. Which array holds them follows kind: ints
// for KindInt and KindDate, strs for KindString, neither for KindNull (a
// column no non-null value has declared yet, whose nullCells cells are all
// null). A null cell of a typed column holds the zero payload and has its
// bit set in nulls, which stays nil until the column holds a null.
type column struct {
	kind      Kind
	ints      []int64
	strs      []string
	nulls     []uint64
	nullCells int
}

// len returns the number of cells the column holds, staged ones included.
func (c *column) len() int {
	switch c.kind {
	case KindNull:
		return c.nullCells
	case KindString:
		return len(c.strs)
	}
	return len(c.ints)
}

// null reports whether cell r is null.
func (c *column) null(r int) bool {
	if c.kind == KindNull {
		return true
	}
	return r>>6 < len(c.nulls) && c.nulls[r>>6]&(1<<(r&63)) != 0
}

// setNull marks cell r null.
func (c *column) setNull(r int) {
	for len(c.nulls) <= r>>6 {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[r>>6] |= 1 << (r & 63)
}

// declare gives a column of kind KindNull the kind k, turning the null
// cells it holds into null cells of a typed array.
func (c *column) declare(k Kind) {
	n := c.nullCells
	c.kind, c.nullCells = k, 0
	if k == KindString {
		c.strs = make([]string, n)
	} else {
		c.ints = make([]int64, n)
	}
	for r := range n {
		c.setNull(r)
	}
}

// truncate drops the cells from n on.
func (c *column) truncate(n int) {
	switch c.kind {
	case KindNull:
		c.nullCells = n
	case KindString:
		c.strs = c.strs[:n]
	default:
		c.ints = c.ints[:n]
	}
	if w := (n + 63) / 64; w < len(c.nulls) {
		c.nulls = c.nulls[:w]
	}
	if r := n % 64; r != 0 && len(c.nulls) == (n+63)/64 {
		c.nulls[len(c.nulls)-1] &= 1<<r - 1
	}
}

// NewTable creates an empty table with the given column names, whose kinds
// the first non-null values appended will set. Column names must be
// unique; NewTable panics otherwise because a malformed schema is a
// programming error, not a runtime condition.
func NewTable(name string, columns ...string) *Table {
	t := &Table{
		name:    name,
		columns: append([]string(nil), columns...),
		colIdx:  make(map[string]int, len(columns)),
		cols:    make([]column, len(columns)),
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
func (t *Table) NumRows() int { return t.rows }

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

// ColumnKind returns the kind of column c: KindInt, KindString or KindDate,
// or KindNull while no header or non-null value has declared one.
func (t *Table) ColumnKind(c int) Kind { return t.cols[c].kind }

// Declare sets the kind of column c to k (KindInt, KindString or KindDate).
// Declaring a column's own kind again does nothing; declaring another kind
// for a column that already has one panics.
func (t *Table) Declare(c int, k Kind) {
	col := &t.cols[c]
	switch {
	case k == col.kind:
	case k != KindInt && k != KindString && k != KindDate:
		panic(fmt.Sprintf("relation: cannot declare kind %d for column %q of table %q", k, t.columns[c], t.name))
	case col.kind != KindNull:
		panic(fmt.Sprintf("relation: column %q of table %q holds kind %d, not %d", t.columns[c], t.name, col.kind, k))
	default:
		col.declare(k)
	}
}

// Grow makes room for n more rows in every declared column, so a decoder
// that knows (or estimates) its row count appends without regrowing.
func (t *Table) Grow(n int) {
	for i := range t.cols {
		c := &t.cols[i]
		switch c.kind {
		case KindInt, KindDate:
			c.ints = slices.Grow(c.ints, n)
		case KindString:
			c.strs = slices.Grow(c.strs, n)
		}
	}
}

// AppendInt stages the payload v of an int or date cell at the end of
// column c, which must be declared an int or date column. Staged cells
// become rows at CommitRows.
func (t *Table) AppendInt(c int, v int64) { t.cols[c].ints = append(t.cols[c].ints, v) }

// AppendString stages a string cell at the end of column c, which must be
// declared a string column.
func (t *Table) AppendString(c int, s string) { t.cols[c].strs = append(t.cols[c].strs, s) }

// AppendNull stages a null cell at the end of column c.
func (t *Table) AppendNull(c int) {
	col := &t.cols[c]
	r := col.len()
	switch col.kind {
	case KindNull:
		col.nullCells++
		return
	case KindString:
		col.strs = append(col.strs, "")
	default:
		col.ints = append(col.ints, 0)
	}
	col.setNull(r)
}

// appendValue stages v at the end of column c, declaring the column's kind
// if v is its first non-null value. The caller has checked v's kind.
func (t *Table) appendValue(c int, v Value) {
	col := &t.cols[c]
	switch {
	case v.Kind == KindNull:
		t.AppendNull(c)
		return
	case col.kind == KindNull:
		col.declare(v.Kind)
	}
	if v.Kind == KindString {
		col.strs = append(col.strs, v.Str)
	} else {
		col.ints = append(col.ints, v.Int)
	}
}

// CommitRows makes the next n staged rows of every column part of the
// table, advancing the version by n. Every column must hold exactly
// NumRows()+n cells; CommitRows panics otherwise.
func (t *Table) CommitRows(n int) {
	for i := range t.cols {
		if got := t.cols[i].len(); got != t.rows+n {
			panic(fmt.Sprintf("relation: table %q commits %d rows but column %q holds %d cells past its %d rows",
				t.name, n, t.columns[i], got-t.rows, t.rows))
		}
	}
	if n == 0 {
		return
	}
	t.rows += n
	t.version.Add(uint64(n))
}

// DiscardRows drops every staged cell, leaving the committed rows. A kind
// the staged cells declared stays declared.
func (t *Table) DiscardRows() {
	for i := range t.cols {
		t.cols[i].truncate(t.rows)
	}
}

// Append adds one row; it is AppendRows for one row, so the same checks
// and concurrency contract apply.
func (t *Table) Append(row ...Value) {
	t.AppendRows([][]Value{row})
}

// AppendRows adds rows in order, copying their values into the columns.
// Every row's length must match the number of columns, and every non-null
// value's kind its column's; a mismatch panics before any row is added.
// The version advances by len(rows), one step per row, so AppendVersion
// stays equal to the row count of a table built only by appends.
// AppendRows requires exclusive access to the table; see the type comment
// for the concurrency contract.
func (t *Table) AppendRows(rows [][]Value) {
	var declared []Kind // the kinds the batch declares, once it declares one
	for _, row := range rows {
		if len(row) != len(t.columns) {
			panic(fmt.Sprintf("relation: table %q expects %d values, got %d", t.name, len(t.columns), len(row)))
		}
		for i, v := range row {
			k := t.cols[i].kind
			if declared != nil {
				k = declared[i]
			}
			switch {
			case v.Kind == KindNull || v.Kind == k:
			case k == KindNull && v.Kind <= KindDate:
				if declared == nil {
					declared = make([]Kind, len(t.cols))
					for c := range t.cols {
						declared[c] = t.cols[c].kind
					}
				}
				declared[i] = v.Kind
			default:
				panic(fmt.Sprintf("relation: table %q column %q holds kind %d, got a value of kind %d",
					t.name, t.columns[i], k, v.Kind))
			}
		}
	}
	for _, row := range rows {
		for i, v := range row {
			t.appendValue(i, v)
		}
	}
	t.CommitRows(len(rows))
}

// AppendTable adds every row of src, which must have the receiver's number
// of columns and, column by column, a kind the receiver's column has or can
// take; AppendTable panics otherwise, before any row is added. Names are
// not compared. The cells are copied.
func (t *Table) AppendTable(src *Table) {
	if len(src.cols) != len(t.cols) {
		panic(fmt.Sprintf("relation: table %q has %d columns, table %q has %d", t.name, len(t.cols), src.name, len(src.cols)))
	}
	for i := range t.cols {
		if !compatible(t.cols[i].kind, src.cols[i].kind) {
			panic(fmt.Sprintf("relation: column %q of table %q holds kind %d, column %q of table %q kind %d",
				t.columns[i], t.name, t.cols[i].kind, src.columns[i], src.name, src.cols[i].kind))
		}
	}
	n := src.rows
	for i := range t.cols {
		dst, s := &t.cols[i], &src.cols[i]
		if s.kind != KindNull && dst.kind == KindNull {
			dst.declare(s.kind)
		}
		base := dst.len()
		switch s.kind {
		case KindNull:
			for range n {
				t.AppendNull(i)
			}
			continue
		case KindString:
			dst.strs = append(dst.strs, s.strs[:n]...)
		default:
			dst.ints = append(dst.ints, s.ints[:n]...)
		}
		if s.nulls == nil {
			continue
		}
		for r := range n {
			if s.null(r) {
				dst.setNull(base + r)
			}
		}
	}
	t.CommitRows(n)
}

// compatible reports whether a column of kind a can take the cells of a
// column of kind b: equal kinds, or either column still undeclared.
func compatible(a, b Kind) bool { return a == b || a == KindNull || b == KindNull }

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

// Cell returns the value in row r of column c.
func (t *Table) Cell(r, c int) Value {
	col := &t.cols[c]
	switch {
	case col.null(r):
		return Null()
	case col.kind == KindString:
		return Value{Kind: KindString, Str: col.strs[r]}
	}
	return Value{Kind: col.kind, Int: col.ints[r]}
}

// Int returns the payload of row r's cell in column c when c is an int or
// date column — 0 for a null cell — and 0 for a column of another kind,
// as Value.AsInt does.
func (t *Table) Int(r, c int) int64 {
	if ints := t.cols[c].ints; r < len(ints) {
		return ints[r]
	}
	return 0
}

// Row returns a new slice holding the i-th row's values. It materialises
// every cell; per-row code reads cells with Cell or Int instead.
func (t *Table) Row(i int) []Value {
	if i < 0 || i >= t.rows {
		panic(fmt.Sprintf("relation: row %d out of range [0, %d) in table %q", i, t.rows, t.name))
	}
	row := make([]Value, len(t.cols))
	for c := range row {
		row[c] = t.Cell(i, c)
	}
	return row
}

// Get returns the value of the named column in the i-th row.
func (t *Table) Get(i int, column string) Value {
	return t.Cell(i, t.mustColumn(column))
}

// Find returns the rows whose cell in column c equals v, ascending, by
// scanning the column: O(rows) with no index built or cached, the lookup
// for a one-off question such as one patient's accesses.
func (t *Table) Find(c int, v Value) []int {
	col := &t.cols[c]
	var out []int
	switch {
	case v.Kind == KindNull:
		for r := range t.rows {
			if col.null(r) {
				out = append(out, r)
			}
		}
	case v.Kind != col.kind:
	case v.Kind == KindString:
		for r, s := range col.strs[:t.rows] {
			if s == v.Str && !col.null(r) {
				out = append(out, r)
			}
		}
	default:
		for r, x := range col.ints[:t.rows] {
			if x == v.Int && !col.null(r) {
				out = append(out, r)
			}
		}
	}
	return out
}

// Index returns a hash index from values of the named column to the row
// numbers holding that value. It builds a fresh map on every call (counted
// by relation.index_builds) and caches nothing, so an append never leaves
// an index stale. No audit path calls it.
func (t *Table) Index(column string) map[Value][]int {
	ci := t.mustColumn(column)
	idx := make(map[Value][]int)
	for r := range t.rows {
		v := t.Cell(r, ci)
		idx[v] = append(idx[v], r)
	}
	indexBuilds.Add(1)
	return idx
}

// NumDistinct returns the number of distinct values in the named column:
// the distinct payloads of its typed cells, plus one when it holds a null.
// It counts with a set of payloads and builds or caches no index.
func (t *Table) NumDistinct(column string) int {
	col := &t.cols[t.mustColumn(column)]
	switch col.kind {
	case KindNull:
		return min(t.rows, 1)
	case KindString:
		return numDistinct(col, col.strs[:t.rows])
	}
	return numDistinct(col, col.ints[:t.rows])
}

// numDistinct counts the distinct payloads among the non-null cells of col,
// plus one when one of its cells is null.
func numDistinct[T comparable](col *column, cells []T) int {
	seen := make(map[T]struct{})
	null := 0
	for r, x := range cells {
		if col.null(r) {
			null = 1
			continue
		}
		seen[x] = struct{}{}
	}
	return len(seen) + null
}

// Filter returns a new table named name holding, in order, the rows r for
// which keep(r) is true, with the receiver's column kinds. The new table
// shares no storage with the receiver.
func (t *Table) Filter(name string, keep func(r int) bool) *Table {
	out := t.empty(name)
	n := 0
	for r := range t.rows {
		if !keep(r) {
			continue
		}
		for c := range t.cols {
			out.appendValue(c, t.Cell(r, c))
		}
		n++
	}
	out.CommitRows(n)
	return out
}

// Clone returns a copy of the table under another name, with copies of its
// columns, so appending to either leaves the other as it was.
func (t *Table) Clone(name string) *Table {
	out := t.empty(name)
	out.AppendTable(t)
	return out
}

// empty returns a table named name with the receiver's columns and their
// declared kinds, and no rows.
func (t *Table) empty(name string) *Table {
	out := NewTable(name, t.columns...)
	for c := range t.cols {
		if k := t.cols[c].kind; k != KindNull {
			out.Declare(c, k)
		}
	}
	return out
}
