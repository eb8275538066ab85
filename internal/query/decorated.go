package query

import (
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
		col, ok := t.ColumnIndex(r.Col)
		if !ok {
			panic("query: decoration references missing column " + t.Name() + "." + r.Col)
		}
		return boundRef{t, r.Inst, col}
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
// instance inst was bound is satisfied; an undecorated walk has none.
func (e *instEnum) holds(inst int) bool {
	if e.ready == nil {
		return true
	}
	value := func(r boundRef) relation.Value {
		if r.inst == 0 {
			return r.t.Cell(e.logRow, r.col)
		}
		return r.t.Cell(e.rows[r.inst-1], r.col)
	}
	for _, d := range e.ready[inst] {
		var r relation.Value
		if d.konst != nil {
			r = *d.konst
		} else {
			r = value(d.right)
		}
		if !d.op.Eval(value(d.left).Compare(r)) {
			return false
		}
	}
	return true
}

// ExplainedRowsDecoratedRange returns one boolean per audited row of the
// half-open range [lo, hi): whether some instance binding of the decorated
// path explains it. Per Definition 3 the result is always a subset of what
// the base path explains. Decorated evaluation is per-row, so disjoint
// ranges concatenate to exactly the full-log result; this is the range
// primitive behind sharding a decorated template's mask across workers.
func (ev *Evaluator) ExplainedRowsDecoratedRange(dp pathmodel.DecoratedPath, lo, hi int) []bool {
	ev.checkRange(lo, hi)
	ev.queriesEvaluated++
	e := ev.decorated(dp)
	out := make([]bool, hi-lo)
	for r := lo; r < hi; r++ {
		n, _ := e.run(ev, r, 1) // first witness suffices
		out[r-lo] = n > 0
	}
	ev.endCall()
	return out
}

// InstancesDecorated enumerates up to limit satisfying bindings for one
// audited row, for natural-language rendering.
func (ev *Evaluator) InstancesDecorated(dp pathmodel.DecoratedPath, logRow, limit int) []InstanceBinding {
	e := ev.decorated(dp)
	n, flat := e.run(ev, logRow, limit)
	ev.endCall()
	return fresh(n, len(e.rows), flat)
}
