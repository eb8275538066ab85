package query

import (
	"cmp"
	"math"

	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// This file is the engine's repeat-access state: for each (patient, user)
// pair of the audited log, the earliest access the history Log holds for it
// in (Date, Lid) order. The repeat-access template of §2.1 ("the same user
// previously accessed the same patient's record"; see isRepeatAccess)
// explains a row exactly when the row comes strictly after that access, so
// one comparison classifies a row and no index of the history is built.
//
// When the history is the audited log itself, the table is the pair
// column's pairFirst, which idProjections extends over appended rows only.
// When it is another table (NewEvaluatorWithLog, a Join shard), it is
// filled by one pass over the history per history version and audited pair
// count, and shared by every cursor, range and shard of the engine.

// stamp is an access's position in (Date, Lid) order.
type stamp struct{ date, lid int64 }

// noAccess is the first access of a pair the history never holds: no row
// comes after it.
var noAccess = stamp{math.MaxInt64, math.MaxInt64}

func (s stamp) before(t stamp) bool {
	return s.date < t.date || (s.date == t.date && s.lid < t.lid)
}

// compare orders s and t: -1, 0 or +1.
func (s stamp) compare(t stamp) int {
	return cmp.Or(cmp.Compare(s.date, t.date), cmp.Compare(s.lid, t.lid))
}

// stampOf reads row r's (Date, Lid) through Table.Int, as the
// repeat-access reference reads them with Value.AsInt: a null cell reads 0.
func stampOf(t *relation.Table, date, lid, r int) stamp {
	return stamp{t.Int(r, date), t.Int(r, lid)}
}

// historyFirst is the first-access table of a history Log that is not the
// audited log: first[p] for the audited pair p, valid while the history is
// still table at version and the pair column numbers pairs pairs.
type historyFirst struct {
	table   *relation.Table
	version uint64
	pairs   int
	first   []stamp
}

// repeats is a read-only view of the audited log's repeat-access state:
// row r's pair and the (Date, Lid) of that pair's earliest history access.
// It covers the rows the log held when Evaluator.repeats returned it.
type repeats struct {
	log       *relation.Table
	date, lid int
	pairID    []uint32
	first     []stamp
}

// repeats returns the repeat-access state of every audited row: the pair
// column (interned on first use, extended over appended rows after) and
// its first-access table. It panics when the database has no Log table,
// or one that lacks a Lid, Date, User or Patient column.
func (ev *Evaluator) repeats() repeats {
	eng := ev.engine
	pr := eng.idProjections()
	rp := repeats{log: eng.log, date: eng.logDateIdx, lid: eng.logLidIdx, pairID: pr.pairID, first: pr.pairFirst}
	if history := eng.db.MustTable(pathmodel.LogTable); history != eng.log {
		rp.first = eng.historyFirst(history, len(pr.pairRows))
	}
	return rp
}

// explains reports whether audited row r comes strictly after the earliest
// history access of its (patient, user) pair in (Date, Lid) order.
func (rp repeats) explains(r int) bool {
	return rp.first[rp.pairID[r]].before(stampOf(rp.log, rp.date, rp.lid, r))
}

// historyFirst returns the first-access table of history for the audited
// log's first pairs pairs, filling it with one pass over history unless
// the cached one was built for the same history version and pair count. A
// history row maps to its audited pair through a dictionary lookup of its
// patient and user and the engine's pair map; a row whose pair the audited
// log does not hold is skipped.
func (eng *engine) historyFirst(history *relation.Table, pairs int) []stamp {
	eng.historyMu.Lock()
	defer eng.historyMu.Unlock()
	if h := eng.history; h != nil && h.table == history && h.version == history.Version() && h.pairs == pairs {
		return h.first
	}
	date, okDate := history.ColumnIndex(pathmodel.LogDateColumn)
	lid, okLid := history.ColumnIndex(pathmodel.LogIDColumn)
	pc, okP := history.ColumnIndex(pathmodel.LogPatientColumn)
	uc, okU := history.ColumnIndex(pathmodel.LogUserColumn)
	if !okDate || !okLid || !okP || !okU {
		panic("query: history Log lacks a Lid, Date, User or Patient column")
	}
	h := &historyFirst{table: history, version: history.Version(), pairs: pairs, first: make([]stamp, pairs)}
	for p := range h.first {
		h.first[p] = noAccess
	}
	eng.projMu.Lock()
	d := &eng.dict
	d.mu.RLock()
	for r := range history.NumRows() {
		pt, u := d.find(history.Cell(r, pc)), d.find(history.Cell(r, uc))
		if pt == noID || u == noID {
			continue
		}
		p, ok := eng.pairs[uint64(pt)<<32|uint64(u)]
		if !ok || int(p) >= pairs {
			continue
		}
		if s := stampOf(history, date, lid, r); s.before(h.first[p]) {
			h.first[p] = s
		}
	}
	d.mu.RUnlock()
	eng.projMu.Unlock()
	eng.history = h
	return h.first
}
