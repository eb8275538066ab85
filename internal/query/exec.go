package query

import "sync/atomic"

// This file is the per-plan execution tracer: EXPLAIN ANALYZE-style per-op
// statistics for compiled plans. Every cached plan carries an execStats
// array sized to its op chain (allocated once, at compile time); when
// collection is enabled, each evaluation counts rows in/out, postings
// consumed, and memo hits per op into a call-local buffer and flushes it
// into the shared atomics when the evaluation returns, so the hot walk pays
// plain-int increments and the shared state one atomic add per op per call.
// When collection is disabled — the default — the cost is one atomic load
// per evaluation entry point plus a nil check per op visit.

// SetExecStats toggles per-op execution statistics for evaluations after
// the call; the default is disabled. Counters accumulate on the shared plan
// entries across every cursor, so a sharded evaluation aggregates into one
// per-plan trace. The setting is engine-wide: every Clone shares it.
func (ev *Evaluator) SetExecStats(on bool) { ev.engine.execOn.Store(on) }

// opExecCounters is the shared, atomically-updated execution tally of one
// plan op.
type opExecCounters struct {
	rowsIn, rowsOut, postings, memoHits atomic.Int64
}

// execStats is one cached plan's per-op execution tally, shared by every
// cursor evaluating the plan.
type execStats struct {
	ops []opExecCounters
}

// OpExec is the snapshot of one op's execution statistics.
type OpExec struct {
	// Kind is the op's step type: "bridge", "map", "exists", or "close".
	Kind string
	// Table is the table the op reads; empty for the closing comparison.
	Table string
	// RowsIn counts values entering the op; RowsOut counts values that
	// qualified (passed the filter, reached a non-empty set of targets
	// downstream, or were a target at the close comparison). A pairs op's
	// values are its walked (op, value) sub-questions, each once per call.
	RowsIn, RowsOut int64
	// Postings counts pair-list entries the op consumed — the same events
	// a cursor's postings counter counts, attributed per op.
	Postings int64
	// MemoHits counts sub-questions at this op answered from the walk's
	// set memo instead of walking.
	MemoHits int64
}

// ExecTrace is the EXPLAIN ANALYZE-style execution report of one prepared
// plan: per-op counters in execution order.
type ExecTrace struct {
	Ops []OpExec
}

// ExecTrace snapshots the accumulated per-op execution statistics of the
// shared plan behind this handle. Counters are zero until SetExecStats(true)
// and accumulate across every cursor and evaluation of the plan.
func (pp *Prepared) ExecTrace() ExecTrace {
	st := pp.ent.exec
	if st == nil {
		return ExecTrace{}
	}
	ops := pp.ent.pl.ops
	tr := ExecTrace{Ops: make([]OpExec, len(ops))}
	for i := range ops {
		c := &st.ops[i]
		tr.Ops[i] = OpExec{
			Kind:     opKindName(ops[i].kind),
			Table:    ops[i].table,
			RowsIn:   c.rowsIn.Load(),
			RowsOut:  c.rowsOut.Load(),
			Postings: c.postings.Load(),
			MemoHits: c.memoHits.Load(),
		}
	}
	return tr
}

func opKindName(k opKind) string {
	switch k {
	case opBridge:
		return "bridge"
	case opMap:
		return "map"
	case opExists:
		return "exists"
	default:
		return "close"
	}
}

// execLocal is the call-local counting buffer of one evaluation: plain ints
// the walk increments, flushed into the shared atomics once at the end. A
// nil *execLocal means collection is off for this call; every method and
// the walks' inline increments nil-check it.
type execLocal struct {
	stats                               *execStats
	rowsIn, rowsOut, postings, memoHits []int64
}

// newExecLocal returns a counting buffer for st, or nil when exec stats are
// disabled.
func newExecLocal(eng *engine, st *execStats) *execLocal {
	if st == nil || len(st.ops) == 0 || !eng.execOn.Load() {
		return nil
	}
	n := len(st.ops)
	buf := make([]int64, 4*n)
	return &execLocal{
		stats:    st,
		rowsIn:   buf[:n],
		rowsOut:  buf[n : 2*n],
		postings: buf[2*n : 3*n],
		memoHits: buf[3*n:],
	}
}

// flush adds the call-local tallies into the shared per-op atomics. Safe on
// a nil receiver (collection disabled).
func (el *execLocal) flush() {
	if el == nil {
		return
	}
	for i := range el.stats.ops {
		c := &el.stats.ops[i]
		if el.rowsIn[i] != 0 {
			c.rowsIn.Add(el.rowsIn[i])
		}
		if el.rowsOut[i] != 0 {
			c.rowsOut.Add(el.rowsOut[i])
		}
		if el.postings[i] != 0 {
			c.postings.Add(el.postings[i])
		}
		if el.memoHits[i] != 0 {
			c.memoHits.Add(el.memoHits[i])
		}
	}
}
