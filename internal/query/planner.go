package query

import (
	"slices"
	"time"

	"repro/internal/relation"
)

// This file is the compile-time planner: the stage between compile (which
// lowers a path into the declared-order op chain) and the plan cache (which
// publishes the result to every cursor). The paper's prototype evaluates
// each explanation path's hops in exactly the order the path declares them;
// hop order and hop width, however, dominate the size of the intermediate
// value sets propagate builds. Following the statistics-free greedy join
// ordering line of work, the planner restructures the chain before any
// tuples flow, using only cardinality signals the engine already has for
// free — the DISTINCT pair projections themselves (their key counts are the
// tables' NumDistinct values, their totals the distinct-pair counts) and the
// audited log's row count. No statistics are collected or maintained.
//
// Three rewrites are applied, in order:
//
//  1. Backward-feasible pruning. The boundary sets feasibleStarts walks at
//     evaluation time are computed once at plan time, and every opMap /
//     opBridge pairs relation is replaced by a private copy restricted to
//     values that can still complete the chain. This pushes the trailing
//     opExists filter of an open plan backward through every expansion (the
//     "boundedness before expansion" rewrite) and eliminates dead-end
//     branches of closed plans that no subsequent hop can extend.
//  2. Exists absorption. Once the op preceding an open plan's trailing
//     opExists has been pruned against the exists index, the opExists
//     passes everything that reaches it and is dropped.
//  3. Greedy hop contraction. Adjacent pairs ops are relations under
//     composition, and composition is associative, so any contraction
//     order yields the same start-to-end relation. The planner repeatedly
//     composes the adjacent pair with the smallest estimated composed size
//     (the classic independence estimate: |a| x avg fanout of b) while the
//     estimate — and an exact size-only pre-scan of the intermediate work —
//     stays under a budget that is a small multiple of the pairs being
//     replaced. Short selective chains typically collapse to a single hop,
//     making propagate one lookup instead of a walk; dense closures that
//     would inflate manyfold are left alone.
//
// Soundness: pruning only ever consults the plan's dependency tables (the
// pairs relations and the opExists set), never the audited log's User column.
// cachedPlan.deps deliberately excludes the audited log so that plans
// survive pure log appends (the basis of incremental auditing); a plan
// pruned against log values would go stale on append without being
// invalidated. The boundary before opClose therefore stays unconstrained.
//
// The declared-order chain remains available as a differential oracle:
// SetPlannerEnabled(false) makes Prepare publish compile's output verbatim,
// and the index-free SupportScan is a second, plan-free oracle. The
// differential tests pin planned output to both.

// PlanInfo records the planner's decisions for one compiled plan. It is
// stored on the plan-cache entry and exposed through Prepared.PlanInfo so
// tests and tools can see what the planner did; the engine-wide aggregates
// are in PlanCacheStats.
type PlanInfo struct {
	// Planned reports whether the planner ran on this plan. It is false
	// when the planner is disabled (the declared-order oracle).
	Planned bool

	// HopsDeclared and HopsPlanned count the plan's ops before and after
	// planning; contraction and exists absorption shrink the chain.
	HopsDeclared, HopsPlanned int

	// PairsDeclared and PairsPlanned total the (from, to) pairs resident
	// across the plan's ops before and after planning, and PairsPruned
	// counts the pairs dropped by backward-feasible pruning alone
	// (contraction changes totals too, so the two are reported apart).
	PairsDeclared, PairsPlanned, PairsPruned int

	// Contractions counts greedy hop compositions applied.
	Contractions int

	// ExistsAbsorbed reports that the open plan's trailing opExists was
	// folded into the pruned predecessor and dropped.
	ExistsAbsorbed bool

	// BoundaryStart and BoundaryEnd are the boundary-set sizes the side
	// choice compares on a closed chain of pairs ops: the distinct start
	// values surviving backward pruning and the distinct values reaching
	// the close boundary. Both are zero when the plan's shape is not
	// eligible (open plans, bare-close plans).
	BoundaryStart, BoundaryEnd int

	// EndSide reports that the planner chose end-side propagation: the end
	// boundary is clearly smaller, so lazy execution walks the inverted
	// chain from the row's end value instead of fanning out from its start
	// value. The materialized oracle is unaffected by the choice.
	EndSide bool

	// PlanNanos is the wall time the planner spent on this plan.
	PlanNanos int64
}

// SetPlannerEnabled toggles the planner stage for plans compiled after the
// call (the default is enabled) and drops the plan cache, so every cached
// chain is re-prepared under the new setting. Disabling the planner makes
// Prepare publish the declared-order chain exactly as compile produced it —
// the differential oracle the planner tests evaluate against. The setting
// is engine-wide: every Clone shares it.
func (ev *Evaluator) SetPlannerEnabled(on bool) {
	ev.engine.plannerOff.Store(!on)
	ev.InvalidatePlans()
}

// PlannerEnabled reports whether the planner stage runs on newly compiled
// plans.
func (ev *Evaluator) PlannerEnabled() bool { return !ev.engine.plannerOff.Load() }

// planPlan runs the planner on a freshly compiled plan and charges the
// decision counters to the engine. It never mutates pl's op arrays — compile
// shares them with every other plan over the same projection — and the
// returned plan is behaviorally identical to pl under propagate and
// feasibleStarts.
func (ev *Evaluator) planPlan(pl plan) plan {
	start := time.Now()
	info := PlanInfo{
		Planned:       true,
		HopsDeclared:  len(pl.ops),
		PairsDeclared: totalPlanPairs(pl.ops),
	}
	// compile interned every value the ops mention, so vals covers their IDs.
	vals := ev.engine.dict.values()
	ops := prunePairs(pl.ops, &info)
	ops = contractHops(ops, vals, &info)
	var rev []op
	if pl.closed {
		rev = chooseEndSide(ops, vals, &info)
	}
	info.HopsPlanned = len(ops)
	info.PairsPlanned = totalPlanPairs(ops)
	info.PlanNanos = time.Since(start).Nanoseconds()

	eng := ev.engine
	eng.plansPlanned.Add(1)
	eng.planContractions.Add(int64(info.Contractions))
	eng.planPairsPruned.Add(int64(info.PairsPruned))
	if info.EndSide {
		eng.planEndSide.Add(1)
	}
	eng.planNanos.Add(info.PlanNanos)
	return plan{ops: ops, rev: rev, closed: pl.closed, info: info}
}

// isPairsOp reports whether o carries a pairs relation (opMap or opBridge) —
// the op forms pruning rewrites and contraction composes.
func isPairsOp(o op) bool { return o.kind == opMap || o.kind == opBridge }

// totalPlanPairs totals the (from, to) pairs resident across ops.
func totalPlanPairs(ops []op) int {
	n := 0
	for _, o := range ops {
		if isPairsOp(o) {
			n += len(o.pairs.to)
		}
	}
	return n
}

// sortByValue orders ids by the values they stand for — the order every
// posting list is kept in (see dict.go for why raw ID order will not do).
func sortByValue(ids []uint32, vals []relation.Value) {
	slices.SortFunc(ids, func(a, b uint32) int { return vals[a].Compare(vals[b]) })
}

// prunePairs walks the chain backward computing, at each op boundary, the
// set of values that can still complete the chain — exactly the sets
// feasibleStarts recomputes on every backward pass — and restricts each
// pairs relation to them. A nil boundary means unconstrained; the boundary
// before opClose is deliberately left unconstrained (see the file comment:
// the audited log is not a plan dependency). Ops whose boundary is
// unconstrained keep their shared base relation; pruned ops get private
// copies. Filtering keeps each list's order.
func prunePairs(ops []op, info *PlanInfo) []op {
	out := slices.Clone(ops)

	var feasible idSet // nil = unconstrained
	for i := len(out) - 1; i >= 0; i-- {
		o := out[i]
		switch o.kind {
		case opClose:
			feasible = nil
		case opExists:
			feasible = o.index
		case opMap, opBridge:
			if feasible == nil {
				feasible = o.pairs.keySet()
				continue
			}
			pruned := &csr{off: make([]uint32, len(o.pairs.off)), to: make([]uint32, 0, len(o.pairs.to))}
			for id := 0; id+1 < len(pruned.off); id++ {
				for _, w := range o.pairs.list(uint32(id)) {
					if feasible.has(w) {
						pruned.to = append(pruned.to, w)
					}
				}
				pruned.off[id+1] = uint32(len(pruned.to))
				if pruned.off[id+1] != pruned.off[id] {
					pruned.keys++
				}
			}
			info.PairsPruned += len(o.pairs.to) - len(pruned.to)
			out[i].pairs = pruned
			feasible = pruned.keySet()
		}
	}

	// Exists absorption: the backward pass above restricted the op before a
	// trailing opExists to values present in the exists index, so the
	// filter now passes everything that reaches it.
	if n := len(out); n >= 2 && out[n-1].kind == opExists && isPairsOp(out[n-2]) {
		out = out[:n-1]
		info.ExistsAbsorbed = true
	}
	return out
}

// chooseEndSide decides, for a closed chain of pairs ops, which side lazy
// execution should propagate from. Backward pruning already restricted the
// first op's key set to the feasible starts, so the start boundary's size
// is free; the end boundary is the distinct values the last hop can emit.
// A closed-plan evaluation asks one (start, end) question per log row, and
// the work of a first-witness search is governed by the fanout on the side
// it expands — so when the end boundary is clearly smaller (strictly less
// than half the start boundary), the planner inverts each pairs relation and
// publishes the reversed chain for lazy execution to walk from the row's
// end value. Inversion is exact — (v, w) holds iff (w, v) holds in the
// inverse — so the explained row set is identical by symmetry, which the
// lazy differential tests pin. Plans containing non-pairs interior ops are
// left alone, and the materialized oracle always evaluates start-side.
func chooseEndSide(ops []op, vals []relation.Value, info *PlanInfo) []op {
	n := len(ops)
	if n < 2 || ops[n-1].kind != opClose {
		return nil
	}
	for _, o := range ops[:n-1] {
		if !isPairsOp(o) {
			return nil
		}
	}
	ends := newIDSet(len(vals))
	info.BoundaryStart = ops[0].pairs.keys
	for _, w := range ops[n-2].pairs.to {
		if !ends.has(w) {
			ends.add(w)
			info.BoundaryEnd++
		}
	}
	if info.BoundaryEnd == 0 || 2*info.BoundaryEnd > info.BoundaryStart {
		return nil
	}
	info.EndSide = true
	rev := make([]op, 0, n)
	for i := n - 2; i >= 0; i-- {
		rev = append(rev, op{kind: opMap, table: ops[i].table, pairs: invertPairs(ops[i].pairs, vals)})
	}
	return append(rev, op{kind: opClose})
}

// invertPairs materializes the inverse of a pairs relation by counting
// sort: one pass sizes each inverse list, a second — over the keys in Value
// order — fills them, so every inverse list comes out in Value order
// without being sorted. A DISTINCT projection has no duplicate (v, w) pairs,
// so the inverse needs no de-duplication.
func invertPairs(c *csr, vals []relation.Value) *csr {
	inv := &csr{off: make([]uint32, len(vals)+1), to: make([]uint32, len(c.to))}
	for _, w := range c.to {
		inv.off[w+1]++
	}
	for i := 1; i < len(inv.off); i++ {
		if inv.off[i] != 0 {
			inv.keys++
		}
		inv.off[i] += inv.off[i-1]
	}
	keys := make([]uint32, 0, c.keys)
	for id := 0; id+1 < len(c.off); id++ {
		if c.off[id] != c.off[id+1] {
			keys = append(keys, uint32(id))
		}
	}
	sortByValue(keys, vals)
	next := slices.Clone(inv.off)
	for _, v := range keys {
		for _, w := range c.list(v) {
			inv.to[next[w]] = v
			next[w]++
		}
	}
	return inv
}

// contractionBudget bounds one candidate composition a ; b: a small
// multiple of the pairs resident in the two hops being replaced, floored so
// tiny plans always contract. The budget is deliberately relative to the
// hops themselves, not to the audited log — a contraction is profitable
// when the composed relation costs about what the hops it replaces cost, and
// a composition that inflates its inputs manyfold (dense self-join closures
// like collaborative groups) loses more in materialization and list-scan
// width than it saves in hop count, no matter how large the log is.
func contractionBudget(a, b *csr) float64 {
	return float64(8 * max(len(a.to)+len(b.to), 512))
}

// estComposed is the independence estimate of |a compose b|: every pair of
// a fans out through b's average fanout. It uses only the projections'
// own cardinalities — no statistics are kept.
func estComposed(a, b *csr) float64 {
	if b.keys == 0 || a.keys == 0 {
		return 0
	}
	return float64(len(a.to)) * float64(len(b.to)) / float64(b.keys)
}

// contractHops greedily composes adjacent pairs ops, smallest estimated
// result first, while the estimate stays under the budget. Composition is
// associative, so the greedy order changes evaluation cost only, never the
// start-to-end relation; terminal opExists / opClose ops are never touched.
//
// The independence estimate picks which pair to attempt, but it can
// undershoot badly when the right relation's lists overlap heavily (many
// left values fanning into the same dense groups): the composition then
// touches far more intermediate pairs than it keeps. So before
// materializing, the chosen pair's exact intermediate work is computed with
// a size-only pre-scan (composeWork) and checked against its budget — a
// doomed composition is rejected for the cost of scanning the left
// relation's lists, and its position is blocked from further attempts.
func contractHops(ops []op, vals []relation.Value, info *PlanInfo) []op {
	blocked := make(map[int]bool) // positions whose composition blew their budget
	for {
		best, bestEst := -1, 0.0
		for i := 0; i+1 < len(ops); i++ {
			if blocked[i] || !isPairsOp(ops[i]) || !isPairsOp(ops[i+1]) {
				continue
			}
			if est := estComposed(ops[i].pairs, ops[i+1].pairs); best == -1 || est < bestEst {
				best, bestEst = i, est
			}
		}
		if best == -1 {
			return ops
		}
		budget := contractionBudget(ops[best].pairs, ops[best+1].pairs)
		if bestEst > budget ||
			float64(composeWork(ops[best].pairs, ops[best+1].pairs)) > budget {
			blocked[best] = true
			continue
		}
		ops[best] = op{
			kind:  opMap,
			table: ops[best].table + "*" + ops[best+1].table,
			pairs: composePairs(ops[best].pairs, ops[best+1].pairs, vals),
		}
		ops = append(ops[:best+1], ops[best+2:]...)
		info.Contractions++
		clear(blocked) // positions shifted; re-evaluate every pair
	}
}

// composeWork returns the exact number of intermediate (v, w, x) pairs the
// composition a ; b touches: Σ |b[w]| over every (v, w) pair of a. It uses
// only list-length lookups, never building anything, so it is cheap even
// when the answer is enormous — the admission check that keeps a bad
// independence estimate from turning into a planning-time blowup.
func composeWork(a, b *csr) int {
	work := 0
	for _, w := range a.to {
		work += len(b.list(w))
	}
	return work
}

// composePairs materializes the relational composition a ; b with
// de-duplicated lists in Value order — the shape a lowered DISTINCT
// projection has, so a contracted hop is indistinguishable from a declared
// one downstream.
func composePairs(a, b *csr, vals []relation.Value) *csr {
	out := &csr{off: make([]uint32, len(a.off))}
	seen := make([]uint32, len(vals)) // seen[x] == id+1: x is already in id's list
	for id := 0; id+1 < len(a.off); id++ {
		lo := len(out.to)
		for _, w := range a.list(uint32(id)) {
			for _, x := range b.list(w) {
				if seen[x] != uint32(id)+1 {
					seen[x] = uint32(id) + 1
					out.to = append(out.to, x)
				}
			}
		}
		out.off[id+1] = uint32(len(out.to))
		if len(out.to) > lo {
			out.keys++
			sortByValue(out.to[lo:], vals)
		}
	}
	return out
}
