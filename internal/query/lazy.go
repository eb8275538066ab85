package query

// This file is the execution engine: pull-based, set-valued evaluation of
// compiled plans. A call's units — the rows of a range, or for whole-log
// support the log's distinct (patient, user) pairs weighted by their rows
// (an open plan's distinct start values) — ask "does this unit's start
// value reach its target?"; the walk answers the coarser sub-question
// "which of this call's targets can value v at op boundary bi reach?" as a
// bitset over the call's distinct targets, by a depth-first walk over the
// plan's pairs lists in declared hop order that stops as soon as the set
// is full. Each (boundary, value) sub-question is
// walked once per call however many units and targets raise it, and its set
// is memoized in the cursor's scratch (dict.go). An open plan has no
// targets: its set is one bit, set by any chain that survives every op, so
// a full set is the first witness. Nothing is retained on the engine. The
// nested join behind the test-only SupportNaive and SupportScan
// (export_test.go) is the independent reference the differential tests pin
// this walk to, row by row.

import "repro/internal/bitset"

// blockSize is the most targets one memo generation numbers: a closed
// call's rows are walked in blocks of at most this many distinct targets,
// so a memoized set is at most blockWords words.
const (
	blockSize  = 1024
	blockWords = blockSize / 64
)

// noTargets is the empty set of any block; it is only ever read.
var noTargets [blockWords]uint64

// lazyWalk is the state of one lazy evaluation: the op chain to walk, the
// cursor's stamped set memo and postings counter. Nothing lands on the
// shared plan entry, and nothing but the cursor's scratch outlives the call.
type lazyWalk struct {
	ops     []op
	s       *scratch
	scanned *int
	exec    *execLocal // nil unless exec stats are enabled (see exec.go)
}

// reaches answers one sub-question with memoized depth-first search: the
// set of the current block's targets that value v at op boundary bi
// reaches, where a value that survives every op of an open chain reaches
// the one target there is. It serves a set the pairs op at bi has memoized
// under the scratch's current generation, and walks otherwise. The
// returned slice is a memo entry or a shared constant set and must not be
// written.
func (lw *lazyWalk) reaches(bi int, v uint32) []uint64 {
	if m := &lw.s.memo[bi]; int(v) < len(m.stamp) && m.stamp[v] == lw.s.gen {
		if lw.exec != nil {
			lw.exec.memoHits[bi]++
		}
		w := lw.s.words
		return m.sets[int(v)*w : int(v)*w+w]
	}
	return lw.walk(bi, v)
}

// walk is reaches for a sub-question the memo does not hold. An opExists
// filters v and passes it on; a pairs op recurses and memoizes, and stops
// consuming postings once its set is full. A path closes from a table
// instance, so compile puts a pairs op before every opClose: that op sets
// the bits of its target postings in place and the walk never visits an
// opClose on its own.
func (lw *lazyWalk) walk(bi int, v uint32) []uint64 {
	s := lw.s
	if bi == len(lw.ops) {
		return s.full[:s.words]
	}
	o := &lw.ops[bi]
	if o.kind == opExists {
		if lw.exec != nil {
			lw.exec.rowsIn[bi]++
		}
		if !o.index.has(v) {
			return noTargets[:s.words]
		}
		if lw.exec != nil {
			lw.exec.rowsOut[bi]++
		}
		return lw.reaches(bi+1, v)
	}
	m, w := &s.memo[bi], s.words
	if lw.exec != nil {
		lw.exec.rowsIn[bi]++
	}
	m.stamp[v] = s.gen
	set := m.sets[int(v)*w : int(v)*w+w]
	clear(set)
	full := s.full[:w]
	list := o.pairs.list(v)
	consumed := 0
	if bi+1 < len(lw.ops) && lw.ops[bi+1].kind == opClose {
		// The closing hop is a comparison, not a branch: set the bits of
		// the postings that are targets in place of one recursion per
		// posting. Every consumed posting enters the close op; those that
		// are targets leave it.
		matched := 0
		for _, t := range list {
			consumed++
			if b, ok := s.bit(t); ok {
				set[b>>6] |= 1 << (b & 63)
				matched++
				if equalSets(set, full) {
					break
				}
			}
		}
		if lw.exec != nil {
			lw.exec.rowsIn[bi+1] += int64(consumed)
			lw.exec.rowsOut[bi+1] += int64(matched)
		}
	} else {
		for _, t := range list {
			consumed++
			if unionInto(set, lw.reaches(bi+1, t)) && equalSets(set, full) {
				break
			}
		}
	}
	*lw.scanned += consumed
	if lw.exec != nil {
		lw.exec.postings[bi] += int64(consumed)
		if !equalSets(set, noTargets[:w]) {
			lw.exec.rowsOut[bi]++
		}
	}
	return set
}

// unionInto ors src into dst and reports whether that added a bit.
func unionInto(dst, src []uint64) bool {
	grew := false
	for i, x := range src {
		if x&^dst[i] != 0 {
			dst[i] |= x
			grew = true
		}
	}
	return grew
}

func equalSets(a, b []uint64) bool {
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// units are a call's units: unit u starts at from[u], must reach target[u]
// when the plan is closed, and stands for weight[u] rows, or for one when
// weight is nil. The units are the rows of a range, or the whole log's
// pairs or start values as logProj.wholeLog lays them out. Once laid
// out (cnt non-nil), a closed plan's distinct targets are numbered in the
// order targets lists them, and the units are visited in blocks of
// blockSize target numbers: visit k is unit order[k], or unit k when order
// is nil, and cnt[blk] ends block blk's visits.
type units struct {
	from, target, weight []uint32
	targets, order, cnt  []uint32
}

// layOut lays out the units of a call to a plan, closed or not, over a
// dictionary of n values: a closed plan's distinct targets are numbered in
// first-appearance order, and a call with more than blockSize of them
// visits its units grouped by block; any other call is one block in unit
// order. The layout aliases s's buffers until its next call, and the
// targets stay numbered until s.clearTargets.
func (s *scratch) layOut(u units, closed bool, n int) units {
	if closed {
		s.numberTargets(u.target, n)
		u.targets = s.targets
	}
	if len(u.targets) > blockSize {
		s.groupByBlock(u.target)
		u.order = s.order
	} else {
		s.cnt = append(s.cnt[:0], uint32(len(u.from)))
	}
	u.cnt = s.cnt
	return u
}

// eval classifies a call's units, which it lays out unless they come laid
// out (see units), sets bit lo+v of dst for each unit v that qualified when
// dst is non-nil, and returns the weighted count of units that qualified. A unit qualifies iff its
// target's bit is set in the set its start value reaches from boundary 0.
// An open plan's units share one one-bit target under a single memo
// generation, so a repeated start is a memo hit; a closed plan's blocks
// each have a generation. Consecutive visits to one start ask its
// sub-question once: the whole log's pairs are laid out sorted by start
// within each block (logProj.wholeLog), so each start asks once per block.
func (pp *Prepared) eval(u units, dst *bitset.Bits, lo int) int {
	pp.ent.lower(pp.ev.engine)
	ops, closed := pp.ent.pl.ops, pp.ent.pl.closed
	n := len(pp.ev.engine.dict.values())
	s := &pp.ev.scratch
	lw := &lazyWalk{ops: ops, s: s, scanned: &pp.ev.postingsScanned, exec: newExecLocal(pp.ev.engine, pp.ent.exec)}
	defer lw.exec.flush()

	if closed {
		defer s.clearTargets()
	}
	if u.cnt == nil {
		u = s.layOut(u, closed, n)
	} else if closed {
		s.numberTargets(u.targets, n)
	}
	targets := max(len(u.targets), 1)

	count, prev := 0, uint32(0)
	k := uint32(0)
	for blk, end := range u.cnt {
		base := uint32(blk * blockSize)
		s.startBlock(ops, n, base, min(uint32(targets)-base, blockSize))
		var set []uint64
		for ; k < end; k++ {
			v := k
			if u.order != nil {
				v = u.order[k]
			}
			b := uint32(0)
			if closed {
				b, _ = s.bit(u.target[v])
			}
			if set == nil || u.from[v] != u.from[prev] {
				set = lw.reaches(0, u.from[v])
			}
			prev = v
			if set[b>>6]&(1<<(b&63)) == 0 {
				continue
			}
			if u.weight == nil {
				count++
			} else {
				count += int(u.weight[v])
			}
			if dst != nil {
				dst.Set(lo + int(v))
			}
		}
	}
	return count
}
