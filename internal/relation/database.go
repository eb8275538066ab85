package relation

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Database is a named collection of tables. It corresponds to the hospital
// database instance that the paper mines: an access log plus the event
// tables that explain it.
type Database struct {
	tables map[string]*Table
	order  []string

	// gen counts schema mutations (AddTable calls, including table
	// replacement); see SchemaVersion.
	gen atomic.Uint64
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// AddTable registers a table. Re-registering a name replaces the previous
// table (used when the Groups table is rebuilt after re-clustering).
func (db *Database) AddTable(t *Table) {
	if _, exists := db.tables[t.Name()]; !exists {
		db.order = append(db.order, t.Name())
	}
	db.tables[t.Name()] = t
	db.gen.Add(1)
}

// SchemaVersion returns the destructive-mutation counter: it increases on
// every AddTable (including table replacement) and never on Append. The
// split matters for append-aware caches: a changed SchemaVersion means a
// *Table pointer obtained earlier may have been swapped out wholesale and
// every derivation from it must be rebuilt, while an unchanged SchemaVersion
// with a grown table is a delta per-table AppendVersion watermarks can
// localize, so caches keyed to unchanged tables survive.
func (db *Database) SchemaVersion() uint64 { return db.gen.Load() }

// Table returns the named table, or nil if absent.
func (db *Database) Table(name string) *Table { return db.tables[name] }

// MustTable returns the named table and panics if it is absent. It is used
// where a missing table indicates a schema-construction bug.
func (db *Database) MustTable(name string) *Table {
	t := db.tables[name]
	if t == nil {
		panic(fmt.Sprintf("relation: database has no table %q", name))
	}
	return t
}

// HasTable reports whether the database contains the named table.
func (db *Database) HasTable(name string) bool {
	_, ok := db.tables[name]
	return ok
}

// TableNames returns the registered table names in registration order.
func (db *Database) TableNames() []string {
	return append([]string(nil), db.order...)
}

// Summary returns one line per table ("name: rows=N cols=M"), sorted by
// table name, for CLI display.
func (db *Database) Summary() []string {
	names := append([]string(nil), db.order...)
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		t := db.tables[n]
		out = append(out, fmt.Sprintf("%s: rows=%d cols=%d", n, t.NumRows(), len(t.Columns())))
	}
	return out
}
