// Package accesslog provides views over the access log table: day-range
// slices, first-access extraction, and log substitution into a database.
// The paper's evaluation repeatedly re-runs mining and template evaluation
// over different log subsets (days 1-6, single days, first accesses only,
// real+fake combined logs); these helpers build those subsets while sharing
// the underlying event tables.
package accesslog

import (
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// Columns of the access log, in schema order.
var Columns = []string{
	pathmodel.LogIDColumn,
	pathmodel.LogDateColumn,
	pathmodel.LogUserColumn,
	pathmodel.LogPatientColumn,
}

// NewLogTable returns an empty table with the access-log schema and the
// given name.
func NewLogTable(name string) *relation.Table {
	return relation.NewTable(name, Columns...)
}

// FilterDays returns the log rows whose date lies in [fromDay, toDay]
// (inclusive day indexes).
func FilterDays(log *relation.Table, fromDay, toDay int) *relation.Table {
	di, _ := log.ColumnIndex(pathmodel.LogDateColumn)
	return log.Filter(log.Name(), func(r int) bool {
		d := int(log.Int(r, di))
		return d >= fromDay && d <= toDay
	})
}

// FirstAccesses returns the subset of log rows that are first accesses: for
// each (user, patient) pair, the earliest access by (date, Lid). As the
// paper notes (§5.3.1), truncation makes some repeat accesses look like
// first accesses; the same artifact applies here when the log is sliced.
func FirstAccesses(log *relation.Table) *relation.Table {
	first := FirstAccessRows(log)
	return log.Filter(log.Name(), func(r int) bool { return first[r] })
}

// FirstAccessRows returns a boolean per row of log marking whether that row
// is the first access by its (user, patient) pair within the log.
func FirstAccessRows(log *relation.Table) []bool {
	type pair struct{ u, p relation.Value }
	lc := pathmodel.LogColumnsOf(log)

	best := make(map[pair]int)
	for r := 0; r < log.NumRows(); r++ {
		k := pair{log.Cell(r, lc.User), log.Cell(r, lc.Patient)}
		b, ok := best[k]
		if !ok {
			best[k] = r
			continue
		}
		if d, bd := log.Int(r, lc.Date), log.Int(b, lc.Date); d < bd || (d == bd && log.Int(r, lc.Lid) < log.Int(b, lc.Lid)) {
			best[k] = r
		}
	}
	out := make([]bool, log.NumRows())
	for _, r := range best {
		out[r] = true
	}
	return out
}

// WithLog returns a shallow copy of db in which the Log table is replaced by
// log (renamed to "Log" if needed). Event tables are shared, so cached
// indexes built on them remain valid across experiments.
func WithLog(db *relation.Database, log *relation.Table) *relation.Database {
	out := relation.NewDatabase()
	for _, name := range db.TableNames() {
		if name == pathmodel.LogTable {
			continue
		}
		out.AddTable(db.Table(name))
	}
	if log.Name() != pathmodel.LogTable {
		log = log.Clone(pathmodel.LogTable)
	}
	out.AddTable(log)
	return out
}

// Combine concatenates two logs into one table named "Log", the real rows
// first, and returns the combined table and the number of real rows: row r
// came from the real log exactly when r < realRows. Used by the
// precision/recall experiments of §5.3.2.
func Combine(real, fake *relation.Table) (combined *relation.Table, realRows int) {
	out := NewLogTable(pathmodel.LogTable)
	out.AppendTable(real)
	out.AppendTable(fake)
	return out, real.NumRows()
}

// UserPatientPairs returns the number of distinct (user, patient) pairs in
// the log, used to report the user-patient density statistic of §5.2.
func UserPatientPairs(log *relation.Table) int {
	type pair struct{ u, p relation.Value }
	ui, _ := log.ColumnIndex(pathmodel.LogUserColumn)
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	set := make(map[pair]struct{})
	for r := 0; r < log.NumRows(); r++ {
		set[pair{log.Cell(r, ui), log.Cell(r, pi)}] = struct{}{}
	}
	return len(set)
}
