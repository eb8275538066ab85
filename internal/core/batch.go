package core

import (
	"context"
	"runtime"
	"time"

	"repro/internal/bitset"
	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/query"
)

// batchChunk is the number of consecutive log rows a worker claims at a
// time. Large enough to amortize the atomic claim, small enough that the
// tail of the log still load-balances across workers — and small enough
// that the streaming pipeline's bounded reorder window (a few chunks per
// worker) holds only a sliver of the log.
const batchChunk = 64

// normalizeParallelism clamps a caller-supplied worker count to [1, n] with
// GOMAXPROCS as the default for non-positive values.
func normalizeParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// minMaskShard is the smallest log-row range worth handing to a worker when
// sharding one template's mask. Shards below this size would spend more time
// on per-shard setup (a path template's walk starts each range with a fresh
// memo generation and claims its scratch from the cursor) than on
// classification. No template pays a
// per-shard pass over the history: repeat access compares each row with its
// pair's first access, which the engine keeps for every shard.
const minMaskShard = 256

// maskShardsPerWorker is how many mask shards each worker should see on a
// large log. More shards than workers keeps the pool load-balanced when
// templates have uneven ranges, and — because workers poll the context
// between claimed shards — bounds how long a cancelled audit keeps running:
// one shard, not one worker's whole share of the log.
const maskShardsPerWorker = 4

// alignedRanges splits [lo, n) into at most workers*maskShardsPerWorker
// near-equal contiguous ranges of roughly minMaskShard rows or more (a span
// smaller than minMaskShard becomes one range), with every *interior*
// boundary a multiple of 64. Aligned boundaries make concurrent shards of
// one packed mask write disjoint words: only the first range can start
// mid-word (an extension resumes at the old watermark), and only that one
// shard touches its boundary word. EvaluateRange over these ranges into
// one mask sets exactly the bits of one full EvaluateRange(lo, n), per the
// Template contract.
func alignedRanges(lo, n, workers int) [][2]int {
	span := n - lo
	if span <= 0 {
		return nil
	}
	k := workers * maskShardsPerWorker
	if maxShards := span / minMaskShard; k > maxShards {
		k = maxShards
	}
	if k < 1 {
		k = 1
	}
	out := make([][2]int, 0, k)
	prev := lo
	for i := 1; i <= k; i++ {
		b := lo + i*span/k
		if i < k {
			b &^= 63 // word-align interior boundaries
		} else {
			b = n
		}
		if b > prev {
			out = append(out, [2]int{prev, b})
			prev = b
		}
	}
	return out
}

// maskTask describes bringing one template's packed mask up to date: bits
// is the destination bitset (fresh, or a grown clone of the cached mask)
// and lo the first log row to evaluate. The destination is private to the
// task until publication, so shards write it without locks.
type maskTask struct {
	tpl  int
	bits *bitset.Bits
	lo   int
}

// ensureMasks brings every template mask up to date with the audited log
// and returns the packed masks in template order. It is the auditor's one
// mask policy — every operation that reads a mask, batch or point, goes
// through it — and its one fault seam. Three per-template outcomes (counted
// in PlanCacheStats): a mask covering the whole log is served as-is; a
// cached mask of an append-monotone template whose log has grown is
// *extended* — cloned (a word-level copy), grown, and only the appended row
// range [rows, n) evaluated, the O(new rows) incremental path; anything else
// (no cached mask, or a template whose old rows appends can reclassify, see
// explain.AppendMonotone) is built from row 0. Every stale template is
// sharded *within* itself into word-aligned log-row ranges (Template
// EvaluateRange), and all shards of all stale templates feed one worker
// pool (parallelism workers; non-positive means GOMAXPROCS) — so a
// workload of two expensive templates scales across every core instead of
// two. Path-backed templates compile once through the engine's shared plan
// cache; the shards only pay classification. A cancelled ctx returns
// ctx.Err() even when every mask is cached; workers poll ctx between
// claimed shards, so a call cancelled mid-build stops after the in-flight
// shards and publishes no partial masks. Concurrent callers may duplicate
// work for a mask both find stale, but they converge on identical values,
// so the cache stays consistent.
func (a *Auditor) ensureMasks(ctx context.Context, parallelism int) ([]*bitset.Bits, error) {
	// Chaos seam: lets the fault framework fail, stall, or panic mask
	// computation as a whole, the way a sick shard's evaluator would.
	if fault.Enabled() {
		if err := fault.InjectCtx(ctx, "core.mask.ensure"); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := a.ev.Log().NumRows()
	hist := a.histVersion()
	nt := len(a.templates)
	out := make([]*bitset.Bits, nt)
	var tasks []maskTask
	a.mu.Lock()
	for i := 0; i < nt; i++ {
		e, ok := a.masks[i]
		monotone := explain.AppendMonotone(a.templates[i])
		switch {
		// A non-monotone template's mask is also stale when the *history*
		// log grew without the audited table growing (WithAuditedLog, whose
		// history is another table): new history rows can retroactively
		// explain its old rows, so hist must match for the hit; monotone
		// templates are immune to chronological history growth by
		// definition.
		case ok && e.rows == n && (monotone || e.hist == hist):
			a.maskHits.Add(1)
			out[i] = e.bits
		case ok && e.rows < n && monotone:
			bits := e.bits.Clone()
			bits.Grow(n)
			tasks = append(tasks, maskTask{tpl: i, bits: bits, lo: e.rows})
			a.maskExtensions.Add(1)
		default:
			tasks = append(tasks, maskTask{tpl: i, bits: bitset.New(n), lo: 0})
			a.maskRecomputes.Add(1)
		}
	}
	a.mu.Unlock()
	if len(tasks) == 0 {
		return out, nil
	}

	workers := normalizeParallelism(parallelism)
	type shard struct{ task, lo, hi int }
	var shards []shard
	for ti, tk := range tasks {
		for _, rg := range alignedRanges(tk.lo, n, workers) {
			shards = append(shards, shard{task: ti, lo: rg[0], hi: rg[1]})
		}
	}

	sp := obs.StartSpan("core.mask.ensure").
		Annotate("templates", nt).
		Annotate("stale", len(tasks)).
		Annotate("shards", len(shards)).
		Annotate("workers", workers)
	timed := obs.Enabled()
	cursors := make([]*query.Evaluator, workers)
	for w := range cursors {
		cursors[w] = a.ev.Clone()
	}
	parallel.ForEach(workers, len(shards), func() bool { return ctx.Err() != nil }, func(w, k int) {
		s := shards[k]
		tk := tasks[s.task]
		ssp := sp.Child("core.mask.shard").
			Annotate("template", a.templates[tk.tpl].Name()).
			Annotate("lo", s.lo).
			Annotate("hi", s.hi).
			Annotate("worker", w)
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		// Shards of one task cover word-disjoint ranges of its private
		// bitset (interior boundaries are 64-aligned), so no lock is
		// needed until publication below.
		a.templates[tk.tpl].EvaluateRange(cursors[w], s.lo, s.hi, tk.bits)
		if timed {
			a.maskEvalNanos.Observe(time.Since(t0).Nanoseconds())
		}
		ssp.End()
	})
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	for _, tk := range tasks {
		a.masks[tk.tpl] = &maskEntry{bits: tk.bits, rows: n, hist: hist}
		out[tk.tpl] = tk.bits
	}
	a.mu.Unlock()
	return out, nil
}

// Unexplained returns the audited-log rows no registered template explains —
// the paper's misuse-detection shortlist — in ascending order. The template
// masks are computed (or extended) with a worker pool, ORed word-at-a-time
// into one packed union, and the zero bits collected: a popcount-speed
// scan, no per-row template loop. With no templates registered every row is
// unexplained.
func (a *Auditor) Unexplained(ctx context.Context, parallelism int) ([]int, error) {
	return a.UnexplainedRange(ctx, parallelism, 0, a.ev.Log().NumRows())
}

// UnexplainedRange is Unexplained over the audited rows [lo, hi): the rows
// of the range the union mask leaves unset, ascending.
func (a *Auditor) UnexplainedRange(ctx context.Context, parallelism, lo, hi int) ([]int, error) {
	if err := checkRange(lo, hi, a.ev.Log().NumRows()); err != nil {
		return nil, err
	}
	masks, err := a.ensureMasks(ctx, parallelism)
	if err != nil {
		return nil, err
	}
	union := bitset.Union(masks...)
	var out []int
	for r := lo; r < hi; r++ {
		if union == nil || !union.Get(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// ExplainedFraction returns the fraction of audited-log rows explained by
// the registered templates (the paper's headline ">94% of accesses"
// number), by popcount over the packed union of masks computed with a
// worker pool. An empty log or an auditor with no templates yields 0, never
// NaN; a failure yields the error, never a 0 that reads as "nothing
// explained".
func (a *Auditor) ExplainedFraction(ctx context.Context, parallelism int) (float64, error) {
	masks, err := a.ensureMasks(ctx, parallelism)
	if err != nil {
		return 0, err
	}
	union := bitset.Union(masks...)
	if union == nil || union.Len() == 0 {
		return 0, nil
	}
	return float64(union.Count()) / float64(union.Len()), nil
}
