package query

import (
	"repro/internal/bitset"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// boundDecoration is one decoration with its column references resolved to
// positions: in the audited row for instance 0, in the bound instance's
// table otherwise.
type boundDecoration struct {
	left, right boundRef
	op          pathmodel.CompareOp
	konst       *relation.Value // when non-nil, right is ignored
}

type boundRef struct {
	t         *relation.Table // the instance's table
	inst, col int
	lid       int // a LogOrder's Lid column, col being its Date; -1 otherwise
}

// decorated returns the cursor's enumerator for dp's base path with dp's
// decorations bound into the walk: each is checked as soon as every instance
// it references is bound, pruning the search early.
func (ev *Evaluator) decorated(dp pathmodel.DecoratedPath) *instEnum {
	e := ev.enumerator(dp.Base)
	e.ready = make([][]boundDecoration, len(e.rows)+1)
	ref := func(r pathmodel.Ref) boundRef {
		t := ev.log
		if r.Inst > 0 {
			t = ev.db.MustTable(dp.Base.Instances()[r.Inst].Table)
		}
		column := func(name string) int {
			col, ok := t.ColumnIndex(name)
			if !ok {
				panic("query: decoration references missing column " + t.Name() + "." + name)
			}
			return col
		}
		if r.Col == pathmodel.LogOrder {
			return boundRef{t, r.Inst, column(pathmodel.LogDateColumn), column(pathmodel.LogIDColumn)}
		}
		return boundRef{t, r.Inst, column(r.Col), -1}
	}
	for _, d := range dp.Decorations {
		b := boundDecoration{left: ref(d.Left), op: d.Op, konst: d.Const}
		if d.Const == nil {
			b.right = ref(d.Right)
		}
		e.ready[d.MaxInst()] = append(e.ready[d.MaxInst()], b)
	}
	return e
}

// holds reports whether every decoration that became checkable when
// instance inst was bound is satisfied; an undecorated walk has none. A
// LogOrder pair compares (Date, Lid) through Table.Int, as the repeat-access
// state does, so a null cell reads 0.
func (e *instEnum) holds(inst int) bool {
	if e.ready == nil {
		return true
	}
	row := func(r boundRef) int {
		if r.inst == 0 {
			return e.logRow
		}
		return e.rows[r.inst-1]
	}
	for _, d := range e.ready[inst] {
		l, r := d.left, d.right
		var c int
		switch {
		case d.konst != nil:
			c = l.t.Cell(row(l), l.col).Compare(*d.konst)
		case l.lid >= 0:
			c = stampOf(l.t, l.col, l.lid, row(l)).compare(stampOf(r.t, r.col, r.lid, row(r)))
		default:
			c = l.t.Cell(row(l), l.col).Compare(r.t.Cell(row(r), r.col))
		}
		if !d.op.Eval(c) {
			return false
		}
	}
	return true
}

// ExplainedRowsDecoratedRange sets bit r of dst for each audited row r of
// the half-open range [lo, hi) that some instance binding of the decorated
// path explains, and touches no other bit. Per Definition 3 the rows it
// sets are always a subset of what the base path explains. Decorated
// evaluation is per-row, so disjoint ranges evaluated into one dst set
// exactly the bits of the full-log result; this is the range primitive
// behind sharding a decorated template's mask across workers. As with
// Prepared.ExplainedRange, several goroutines may share one dst only when
// every boundary between their ranges is a multiple of 64.
//
// Repeat access (isRepeatAccess) is answered by the engine's per-pair
// first-access state, one comparison per row; every other decorated path
// is walked row by row.
func (ev *Evaluator) ExplainedRowsDecoratedRange(dp pathmodel.DecoratedPath, lo, hi int, dst *bitset.Bits) {
	ev.decoratedRows(dp, lo, hi, dst)
}

// SupportDecoratedRange returns how many audited rows of [lo, hi) the
// decorated path explains: the count of the bits ExplainedRowsDecoratedRange
// would set, with no mask to write.
func (ev *Evaluator) SupportDecoratedRange(dp pathmodel.DecoratedPath, lo, hi int) int {
	return ev.decoratedRows(dp, lo, hi, nil)
}

// decoratedRows classifies the rows [lo, hi) as one evaluated query, sets
// the bit of each explained row in dst when dst is non-nil, and returns
// how many it explained.
func (ev *Evaluator) decoratedRows(dp pathmodel.DecoratedPath, lo, hi int, dst *bitset.Bits) int {
	ev.checkRange(lo, hi)
	ev.queriesEvaluated++
	n := 0
	hit := func(r int) {
		n++
		if dst != nil {
			dst.Set(r)
		}
	}
	if isRepeatAccess(dp) {
		rp := ev.repeats()
		for r := lo; r < hi; r++ {
			if rp.explains(r) {
				hit(r)
			}
		}
		return n
	}
	e := ev.decorated(dp)
	for r := lo; r < hi; r++ {
		if k, _ := e.run(ev, r, 1); k > 0 { // first witness suffices
			hit(r)
		}
	}
	ev.endCall()
	return n
}

// isRepeatAccess reports whether dp is the repeat access of §2.1: a second
// Log instance joined to the audited row on Patient and then on User,
// whose only decoration pins it before the audited row in log order. Such a
// row is explained exactly when it comes after its (patient, user) pair's
// first access in the history Log.
func isRepeatAccess(dp pathmodel.DecoratedPath) bool {
	insts, conds := dp.Base.Instances(), dp.Base.Conds()
	return len(insts) == 2 && insts[1].Table == pathmodel.LogTable && len(conds) == 2 &&
		conds[0] == pathmodel.Cond{LeftInst: 0, LeftCol: pathmodel.LogPatientColumn, RightInst: 1, RightCol: pathmodel.LogPatientColumn} &&
		conds[1] == pathmodel.Cond{LeftInst: 1, LeftCol: pathmodel.LogUserColumn, RightInst: 0, RightCol: pathmodel.LogUserColumn} &&
		len(dp.Decorations) == 1 && dp.Decorations[0].PinsPast(1)
}

// InstancesDecorated enumerates up to limit satisfying bindings for one
// audited row, for natural-language rendering.
func (ev *Evaluator) InstancesDecorated(dp pathmodel.DecoratedPath, logRow, limit int) []InstanceBinding {
	e := ev.decorated(dp)
	n, flat := e.run(ev, logRow, limit)
	ev.endCall()
	return fresh(n, len(e.rows), flat)
}
