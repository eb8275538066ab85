package query

import "slices"

// This file is the execution engine: pull-based, first-witness evaluation of
// compiled plans. Each per-row question — "does this row's end value lie in
// the start value's reach?" — is answered by a depth-first walk over the
// plan's pairs lists in declared hop order that stops at the first witness
// chain. Nothing is retained on the engine: verdicts are memoized per call
// in the cursor's scratch (dict.go) — each (boundary, value) sub-question of
// an open plan, each (boundary, value, end) of a closed one, is walked once
// per call however many rows raise it. The nested join behind the
// test-only SupportNaive and SupportScan (export_test.go) is the independent
// reference the differential tests pin this walk to, row by row.

// lazyWalk is the state of one lazy evaluation: the op chain to walk, the
// cursor's stamped verdict memo and postings counter. Nothing lands on the
// shared plan entry, and nothing but the cursor's scratch outlives the call.
type lazyWalk struct {
	ops     []op
	s       *scratch
	scanned *int
	exec    *execLocal // nil unless exec stats are enabled (see exec.go)
}

// reaches answers one sub-question with memoized depth-first search: can
// value v at op boundary bi complete the rest of the chain — for a closed
// plan, arriving at exactly end? It stops at the first witness. Filter ops
// (opExists, opClose) advance iteratively; only branching pairs ops recurse
// and memoize, under the scratch's current generation, and a pairs op whose
// next op is the opClose compares its postings with end in place. A value
// that survives every op of an open chain completes the path; a closed chain
// always ends at its opClose.
func (lw *lazyWalk) reaches(bi int, v, end uint32) bool {
	for {
		if bi == len(lw.ops) {
			return true
		}
		o := &lw.ops[bi]
		switch o.kind {
		case opClose:
			if lw.exec != nil {
				lw.exec.rowsIn[bi]++
				if v == end {
					lw.exec.rowsOut[bi]++
				}
			}
			return v == end
		case opExists:
			if lw.exec != nil {
				lw.exec.rowsIn[bi]++
			}
			if !o.index.has(v) {
				return false
			}
			if lw.exec != nil {
				lw.exec.rowsOut[bi]++
			}
			bi++
		default: // opBridge, opMap
			memo, gen := lw.s.memo[bi], lw.s.gen
			if m := memo[v]; m>>1 == gen {
				if lw.exec != nil {
					lw.exec.memoHits[bi]++
				}
				return m&1 != 0
			}
			if lw.exec != nil {
				lw.exec.rowsIn[bi]++
			}
			verdict := gen << 1
			list := o.pairs.list(v)
			if bi+1 < len(lw.ops) && lw.ops[bi+1].kind == opClose {
				// The closing hop is a comparison, not a branch: find the
				// first posting equal to end in place of one recursion per
				// posting. Postings up to and including the witness are
				// consumed, and each of them enters the close op, exactly
				// as the recursive walk counts them.
				consumed := len(list)
				if i := slices.Index(list, end); i >= 0 {
					consumed, verdict = i+1, verdict|1
				}
				*lw.scanned += consumed
				if lw.exec != nil {
					lw.exec.postings[bi] += int64(consumed)
					lw.exec.rowsIn[bi+1] += int64(consumed)
					if verdict&1 != 0 {
						lw.exec.rowsOut[bi+1]++
					}
				}
			} else {
				for _, w := range list {
					*lw.scanned++
					if lw.exec != nil {
						lw.exec.postings[bi]++
					}
					if lw.reaches(bi+1, w, end) {
						verdict |= 1
						break
					}
				}
			}
			if verdict&1 != 0 && lw.exec != nil {
				lw.exec.rowsOut[bi]++
			}
			memo[v] = verdict
			return verdict&1 != 0
		}
	}
}

// eval classifies the log rows [lo, hi) with the lazy walk, stores the
// verdicts in out when it is non-nil (out[i] is row lo+i) and returns how
// many rows qualified. An open plan asks one question per row under a
// single memo generation. A closed plan's question also names the row's
// target, so its rows are visited grouped by target with one generation per
// group: the verdict of (op, value) under the current target then fits a
// flat array instead of a hash map keyed by (op, value, target). Every
// sub-question is still answered once per call and the sub-questions a row
// raises do not depend on when it is visited, so verdicts, postings and
// exec counters are those of a log-order walk.
func (pp *Prepared) eval(lo, hi int, out []bool) int {
	pp.ent.lower(pp.ev.engine)
	from, target := pp.orient()
	ops := pp.ent.pl.ops
	n := len(pp.ev.engine.dict.values())
	s := &pp.ev.scratch
	s.reset(ops, n)
	lw := &lazyWalk{ops: ops, s: s, scanned: &pp.ev.postingsScanned, exec: newExecLocal(pp.ev.engine, pp.ent.exec)}
	defer lw.exec.flush()
	count := 0
	visit := func(k int) {
		if lw.reaches(0, from[lo+k], target[lo+k]) {
			count++
			if out != nil {
				out[k] = true
			}
		}
	}
	if !pp.ent.pl.closed {
		s.nextGen()
		for k := 0; k < hi-lo; k++ {
			visit(k)
		}
		return count
	}
	s.groupByTarget(target, lo, hi, n)
	k := uint32(0)
	for _, t := range s.targets {
		s.nextGen()
		for ; k < s.cnt[t]; k++ {
			visit(int(s.order[k]))
		}
		s.cnt[t] = 0
	}
	return count
}
