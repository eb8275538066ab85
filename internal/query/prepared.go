package query

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// Prepared is a compiled explanation path bound to one evaluator cursor: the
// handle returned by Evaluator.Prepare. The compiled plan behind it lives in
// the engine-level plan cache and is shared by every cursor cloned from the
// same evaluator, so preparing the same path (or any path with the same
// canonical condition set) on any cursor reuses one compilation, and the
// backward feasibleStarts set of an open plan is likewise computed once and
// shared.
//
// A Prepared is as concurrency-safe as the cursor it came from: the shared
// plan entry may be read from any number of goroutines, but the handle
// counts queries on its owning cursor, so use one handle (from one cloned
// cursor) per goroutine. The range methods are the primitive for sharding
// one whole-log evaluation across workers: disjoint [lo, hi) ranges
// evaluated on per-worker cursors concatenate to exactly the full-range
// result.
type Prepared struct {
	ev   *Evaluator
	path pathmodel.Path
	ent  *cachedPlan
}

// Prepare compiles p once and returns a reusable handle. The compiled plan
// is looked up in (and installed into) the engine's shared plan cache keyed
// by the path's canonical condition key, so repeated Prepare calls — from
// this cursor or any clone — do not recompile, and two paths imposing the
// same condition set share one plan.
//
// Invalidation is append-aware and two-tier: a schema mutation
// (relation.Database.SchemaVersion — AddTable, including replacement)
// drops the whole cache, while row appends invalidate only the entries
// whose compiled plans snapshotted the appended table (each entry records
// the version of every table it read at compile time). Appending audited
// log rows therefore costs nothing here: plans, feasible-start sets, and
// reach memos all survive, and only the log-column projections extend.
// Callers holding a *Prepared across a mutation should re-Prepare — the
// handle pins its compile-time snapshot.
func (ev *Evaluator) Prepare(p pathmodel.Path) *Prepared {
	key := p.CanonicalKey()
	for {
		ent := ev.engine.planEntry(key)
		ent.compileOnce.Do(func() {
			// Compile wall time feeds the query.plan.compile_nanos histogram,
			// but only when observability is on — the disabled path never
			// reads the clock.
			var t0 time.Time
			timed := obs.Enabled()
			if timed {
				t0 = time.Now()
			}
			pl := ev.compile(p)
			if !ev.engine.plannerOff.Load() {
				// Planner stage: prune and contract the declared-order chain
				// using the compile-time projections (see planner.go). Runs
				// inside the Once, so each cached plan is planned exactly
				// once and every cursor shares the planned chain.
				pl = ev.planPlan(pl)
			}
			ent.pl = pl
			// The per-op execution tally is sized here, once: the planner's
			// end-side chain (when chosen) inverts pair-by-pair, so one array
			// of len(ops) counters serves whichever chain execution walks.
			ent.exec = &execStats{ops: make([]opExecCounters, len(pl.ops))}
			ent.forward = p.Forward()
			// Record the version of every table the compilation read. The
			// table contract forbids concurrent appends, so these are the
			// versions the snapshotted indexes and projections reflect.
			ent.deps = ev.planDeps(p)
			ev.engine.countResident(key, ent)
			if timed {
				ev.engine.compileNanos.Observe(time.Since(t0).Nanoseconds())
			}
		})
		if ent.fresh() {
			return &Prepared{ev: ev, path: p, ent: ent}
		}
		// A dependency grew since this entry was compiled: its snapshotted
		// indexes are stale. Drop it and recompile against current rows.
		ev.engine.dropPlan(key, ent)
	}
}

// planDeps snapshots the current version of every table the compiled plan
// for p reads (bridge tables and right-hand instances; instance 0 is the
// audited log, which plans never snapshot — per-row log values flow in
// through the engine's extendable projections instead).
func (ev *Evaluator) planDeps(p pathmodel.Path) []planDep {
	insts := p.Instances()
	seen := make(map[*relation.Table]bool)
	var deps []planDep
	add := func(t *relation.Table) {
		if !seen[t] {
			seen[t] = true
			deps = append(deps, planDep{table: t, version: t.Version()})
		}
	}
	for _, c := range p.Conds() {
		if c.Via != nil {
			add(ev.db.MustTable(c.Via.Table))
		}
		if c.RightInst != 0 {
			add(ev.db.MustTable(insts[c.RightInst].Table))
		}
	}
	return deps
}

// Path returns the path the handle was prepared from.
func (pp *Prepared) Path() pathmodel.Path { return pp.path }

// Closed reports whether the prepared path is closed (reaches Log.User).
func (pp *Prepared) Closed() bool { return pp.ent.pl.closed }

// PlanInfo returns the planner's recorded decisions for the shared plan
// behind this handle; the zero value (Planned == false) means the plan is
// the declared-order chain (planner disabled).
func (pp *Prepared) PlanInfo() PlanInfo { return pp.ent.pl.info }

// orient returns the per-row start and end ID columns for the orientation
// the shared plan was compiled in. Two paths with equal canonical keys can
// differ in orientation (a closed path and its reverse impose the same
// condition set); the plan's own orientation is the one its ops expect, and
// the explained/connected row set is orientation-invariant, so results are
// identical either way. The snapshot covers every audited row, including
// ones appended after the handle was prepared (see engine.idProjections).
func (pp *Prepared) orient() (starts, ends []uint32) {
	pr := pp.ev.idProjections()
	if pp.ent.forward {
		return pr.patientID, pr.userID
	}
	return pr.userID, pr.patientID
}

// feasible returns the open plan's feasible-start set, computing it once per
// cache entry and sharing it across all cursors. feasDone is published after
// the set so Support's opportunistic peek never observes a half-written
// memo.
func (pp *Prepared) feasible() valueSet {
	ent := pp.ent
	ent.feasOnce.Do(func() {
		ent.feas = pp.ev.engine.backwardPass(ent.pl)
		ent.feasDone.Store(true)
	})
	return ent.feas
}

// checkRange validates a half-open row range against the audited log.
func (pp *Prepared) checkRange(lo, hi int) {
	if n := len(pp.ev.projections().patients); lo < 0 || hi < lo || hi > n {
		panic(fmt.Sprintf("query: range [%d, %d) out of bounds for %d log rows",
			lo, hi, n))
	}
}

// Support returns COUNT(DISTINCT Log.Lid) of the prepared path's support
// query, exactly as Evaluator.Support but without recompiling. Its
// propagation state (the open path's feasible-start set, the closed path's
// reach memo) is call-local rather than cached on the shared plan entry —
// see the cachedPlan comment for why.
func (pp *Prepared) Support() int {
	pp.ev.queriesEvaluated++
	if pp.ev.engine.lazyEval() {
		return pp.evalLazy(0, len(pp.ev.projections().patients), nil)
	}
	starts, ends := pp.orient()
	n := 0
	if !pp.ent.pl.closed {
		// Reuse the shared feasible-start memo when a ConnectedRange caller
		// already populated it — the backward pass is the whole cost of an
		// open-path support query. When the memo is cold, compute the set
		// call-local instead of filling it: Support is the miner's hot path,
		// and pinning a feasible-start set for every mined candidate in an
		// engine-lifetime entry would grow memory without bound.
		var f valueSet
		if pp.ent.feasDone.Load() {
			f = pp.ent.feas
		} else {
			f = pp.ev.engine.backwardPass(pp.ent.pl)
		}
		for _, sv := range starts {
			if f.has(sv) {
				n++
			}
		}
		return n
	}
	reach := make(map[uint32]valueSet)
	for r, sv := range starts {
		set, ok := reach[sv]
		if !ok {
			set = propagate(pp.ent.pl, sv, nil)
			reach[sv] = set
		}
		if set.has(ends[r]) {
			n++
		}
	}
	return n
}

// ExplainedRows returns one boolean per log row: whether the closed path
// explains that access. It panics on open paths.
func (pp *Prepared) ExplainedRows() []bool {
	return pp.ExplainedRange(0, len(pp.ev.projections().patients))
}

// ExplainedRange evaluates the closed path over the half-open log-row range
// [lo, hi) and returns hi-lo booleans: element i is ExplainedRows()[lo+i].
// Disjoint ranges concatenate to exactly the full-range result, which is
// what lets one template mask be sharded across a worker pool. It panics on
// open paths and out-of-bounds ranges. Each call counts as one evaluated
// query on the owning cursor.
func (pp *Prepared) ExplainedRange(lo, hi int) []bool {
	if !pp.ent.pl.closed {
		panic("query: ExplainedRange requires a closed path")
	}
	pp.checkRange(lo, hi)
	pp.ev.queriesEvaluated++
	out := make([]bool, hi-lo)
	if pp.ev.engine.lazyEval() {
		// First-witness search per row; the shared reach memo is neither
		// consulted nor filled, so a range evaluation retains nothing on the
		// engine once it returns.
		pp.evalLazy(lo, hi, out)
		return out
	}
	starts, ends := pp.orient()
	el := newExecLocal(pp.ev.engine, pp.ent.exec)
	for r := lo; r < hi; r++ {
		sv := starts[r]
		set, ok := pp.ent.reach.get(sv)
		if !ok {
			set = propagate(pp.ent.pl, sv, el)
			pp.ent.reach.put(sv, set)
		} else if el != nil {
			// A reach-memo hit skips the whole walk; charge it to the first
			// op, where the walk would have started.
			el.memoHits[0]++
		}
		out[r-lo] = set.has(ends[r])
	}
	el.flush()
	return out
}

// ConnectedRows returns one boolean per log row: whether the open path's
// start value can begin a satisfiable chain. It panics on closed paths.
func (pp *Prepared) ConnectedRows() []bool {
	return pp.ConnectedRange(0, len(pp.ev.projections().patients))
}

// ConnectedRange is the range form of ConnectedRows over [lo, hi): element i
// is ConnectedRows()[lo+i]. The feasible-start set is computed once per
// shared plan entry, so sharding an indicator across workers costs one
// backward propagation total, not one per shard. It panics on closed paths
// and out-of-bounds ranges.
func (pp *Prepared) ConnectedRange(lo, hi int) []bool {
	if pp.ent.pl.closed {
		panic("query: ConnectedRange requires an open path")
	}
	pp.checkRange(lo, hi)
	pp.ev.queriesEvaluated++
	out := make([]bool, hi-lo)
	if pp.ev.engine.lazyEval() {
		pp.evalLazy(lo, hi, out)
		return out
	}
	starts, _ := pp.orient()
	f := pp.feasible()
	for r := lo; r < hi; r++ {
		out[r-lo] = f.has(starts[r])
	}
	return out
}

// Instances enumerates up to limit explanation instances of the prepared
// closed path for one log row; see Evaluator.Instances.
func (pp *Prepared) Instances(logRow, limit int) []InstanceBinding {
	return pp.ev.Instances(pp.path, logRow, limit)
}

// cachedPlan is one entry of the engine-level plan cache: the compiled plan,
// the orientation it was compiled in, and (for open plans, lazily) the
// backward feasibleStarts set. Entries are installed empty under the cache
// lock and filled exactly once via compileOnce, so concurrent Prepare calls
// for the same key block on one compilation instead of duplicating it.
type cachedPlan struct {
	compileOnce sync.Once
	pl          plan
	forward     bool

	// exec is the plan's per-op execution tally (see exec.go), allocated
	// inside compileOnce so every cursor evaluating the plan shares one
	// array. It accumulates only while SetExecStats(true).
	exec *execStats

	// bytes is what the entry contributes to query.plan.resident_bytes while
	// it is in the cache (guarded by the engine's planMu).
	bytes int64

	// deps records, per table the compilation read, the table's version at
	// compile time (written inside compileOnce, so visible to every
	// goroutine that has passed the Once). A mismatch with the table's
	// current version means the plan's snapshotted indexes and DISTINCT
	// projections are stale; Prepare then drops this entry alone. Plans
	// whose dependencies did not change — in particular every plan during a
	// pure audited-log append — stay cached along with their feasible-start
	// sets and reach memos, which is what makes incremental auditing O(new
	// rows) rather than O(recompile + re-propagate).
	deps []planDep

	// feas memoizes the open plan's backward feasible-start set; reach
	// memoizes forward propagation for closed plans (start value ->
	// reachable end-value set). Both are shared by every cursor and shard,
	// so when a template's mask is sharded across workers, the backward
	// pass runs once and a patient whose rows span several shards is
	// propagated once, not once per shard — without this, row-range
	// sharding would redo most of the propagation work in every shard and
	// scale poorly. The reach memo is bounded (engine reachCap, clock
	// eviction — see reachCache) so a plan entry retains a working set, not
	// one propagation per distinct start value for its whole life. Only the
	// row-classification paths (ExplainedRows / ExplainedRange /
	// ConnectedRows / ConnectedRange) populate it; Support keeps its
	// propagation call-local because the miner's canonical-key support
	// cache already ensures each candidate condition set is evaluated once,
	// and pinning propagation sets for every mined candidate in an
	// engine-lifetime cache would grow memory without bound. Racing workers
	// may duplicate a reach propagation; the first put wins, and propagate
	// is deterministic, so results are identical.
	feasOnce sync.Once
	feas     valueSet
	// feasDone is set (after feas, inside the Once) when the shared memo is
	// populated; Support peeks it to reuse the memo without ever filling it,
	// and the atomic orders the peek against the Once body's write.
	feasDone atomic.Bool
	reach    *reachCache
}

// planDep is one compile-time table dependency of a cached plan.
type planDep struct {
	table   *relation.Table
	version uint64
}

// fresh reports whether every table the plan snapshotted is unchanged. It
// must only be called after compileOnce has completed.
func (ent *cachedPlan) fresh() bool { return depsFresh(ent.deps) }

// depsFresh reports whether every table in deps is at its recorded version.
func depsFresh(deps []planDep) bool {
	for _, d := range deps {
		if d.table.Version() != d.version {
			return false
		}
	}
	return true
}

// dropPlan removes ent from the cache if it is still the resident entry for
// key, so the next lookup installs a fresh entry and recompiles. Concurrent
// droppers are idempotent; a racing Prepare that re-installed a newer entry
// under the same key is left alone.
func (eng *engine) dropPlan(key string, ent *cachedPlan) {
	eng.planMu.Lock()
	if eng.plans[key] == ent {
		delete(eng.plans, key)
		eng.planBytes.Add(-ent.bytes)
	}
	eng.planMu.Unlock()
}

// countResident records the freshly compiled ent's op arrays in
// query.plan.resident_bytes, provided it is still the cached entry for key;
// whatever removes a counted entry from the cache subtracts ent.bytes again.
func (eng *engine) countResident(key string, ent *cachedPlan) {
	n := 0
	for _, o := range slices.Concat(ent.pl.ops, ent.pl.rev) {
		if o.pairs != nil {
			n += 4 * (len(o.pairs.off) + len(o.pairs.to))
		}
		n += 8 * len(o.index)
	}
	eng.planMu.Lock()
	if eng.plans[key] == ent {
		ent.bytes = int64(n)
		eng.planBytes.Add(ent.bytes)
	}
	eng.planMu.Unlock()
}

// resetPlans empties the cache. The caller holds planMu for writing.
func (eng *engine) resetPlans() {
	eng.plans = make(map[string]*cachedPlan)
	eng.planVersion = eng.db.SchemaVersion()
	eng.planBytes.Set(0)
}

// planEntry returns the cache entry for key, creating it if absent. The
// cache is dropped wholesale when the database's schema version no longer
// matches the version the cache was built against (a table may have been
// replaced); per-table appends are handled entry-by-entry in Prepare via
// the compile-time dependency versions.
func (eng *engine) planEntry(key string) *cachedPlan {
	v := eng.db.SchemaVersion()
	eng.planMu.RLock()
	if eng.planVersion == v {
		if ent, ok := eng.plans[key]; ok {
			eng.planMu.RUnlock()
			eng.planHits.Add(1)
			return ent
		}
	}
	eng.planMu.RUnlock()

	eng.planMu.Lock()
	defer eng.planMu.Unlock()
	if eng.planVersion != v {
		eng.resetPlans()
	}
	if ent, ok := eng.plans[key]; ok {
		eng.planHits.Add(1)
		return ent
	}
	eng.planMisses.Add(1)
	ent := &cachedPlan{reach: newReachCache(int(eng.reachCap.Load()), eng.reachEvictions)}
	eng.plans[key] = ent
	return ent
}

// InvalidatePlans drops every cached plan, forcing the next Prepare of each
// path to recompile. The cache already self-invalidates when the database
// version changes; this exists for callers that want to release memory or to
// measure compilation cost (the compile-each-time benchmark baseline). It
// affects all cursors sharing the engine.
func (ev *Evaluator) InvalidatePlans() {
	eng := ev.engine
	eng.planMu.Lock()
	eng.resetPlans()
	eng.planMu.Unlock()
}

// PlanCacheKeys returns the canonical condition key of every plan currently
// resident in the engine's shared cache, sorted. The keys are the durable
// identity of the cache's contents: the warm-start layer records them in a
// snapshot, and a restarted engine re-Prepares the template paths whose
// canonical keys match, rebuilding an equivalent cache without replaying
// the workload that populated it.
func (ev *Evaluator) PlanCacheKeys() []string {
	eng := ev.engine
	eng.planMu.RLock()
	keys := make([]string, 0, len(eng.plans))
	for k := range eng.plans {
		keys = append(keys, k)
	}
	eng.planMu.RUnlock()
	slices.Sort(keys)
	return keys
}

// PlanCacheStats is a snapshot of the engine-wide plan-cache counters:
// lookup hits/misses, plus the bounded reach memo's eviction count, resident
// entry total, and configured per-plan cap.
type PlanCacheStats struct {
	// Hits and Misses count plan-cache lookups (Prepare calls) across every
	// cursor sharing the engine.
	Hits, Misses int64
	// ReachEvictions counts reach-memo entries evicted under the cap, summed
	// over all plans for the life of the engine (it survives cache
	// invalidation).
	ReachEvictions int64
	// ReachEntries is the number of propagation results currently resident
	// across all cached plans' reach memos.
	ReachEntries int
	// ReachCap is the configured per-plan bound (0 = unbounded); see
	// SetReachMemoCap.
	ReachCap int

	// ReachCapMin and ReachCapMax bound the per-engine caps folded into an
	// aggregate snapshot; a single engine reports its own cap in both. They
	// recover the range the -1 "mixed" ReachCap sentinel discards, so a
	// federated display can still say what the shards are configured with.
	// Aggregate with Add starting from a real snapshot, not the zero value —
	// a zero-valued term would fold a spurious 0 into the min.
	ReachCapMin, ReachCapMax int

	// Planner aggregates (see planner.go): plans run through the planner
	// stage, greedy hop contractions applied, pairs dropped by
	// backward-feasible pruning, closed plans for which end-side
	// propagation was chosen, and total planning wall time in nanoseconds.
	// All zero when the planner is disabled.
	PlansPlanned     int64
	PlanContractions int64
	PlanPairsPruned  int64
	PlanEndSide      int64
	PlanNanos        int64

	// MaskHits, MaskRecomputes, and MaskExtensions count the auditing
	// layer's template-mask cache outcomes: masks served as-is, masks built
	// (or rebuilt) from row 0, and masks extended in place over appended log
	// rows. The query engine itself does not fill them — they belong to the
	// mask cache stacked on top of it (core.Auditor.PlanCacheStats reports
	// the combined snapshot) — but they live here so single-engine and
	// federated displays aggregate one struct.
	MaskHits, MaskRecomputes, MaskExtensions int64
}

// Add returns the element-wise aggregate of two snapshots: counters sum,
// which is how a federation folds the plan caches of its per-shard engines
// into one logical view. ReachCap is a configuration, not a counter: it is
// kept when both snapshots agree and becomes -1 ("mixed") when they differ,
// so an aggregate never silently reports one shard's cap as everyone's.
func (s PlanCacheStats) Add(o PlanCacheStats) PlanCacheStats {
	out := PlanCacheStats{
		Hits:             s.Hits + o.Hits,
		Misses:           s.Misses + o.Misses,
		ReachEvictions:   s.ReachEvictions + o.ReachEvictions,
		ReachEntries:     s.ReachEntries + o.ReachEntries,
		ReachCap:         s.ReachCap,
		ReachCapMin:      min(s.ReachCapMin, o.ReachCapMin),
		ReachCapMax:      max(s.ReachCapMax, o.ReachCapMax),
		PlansPlanned:     s.PlansPlanned + o.PlansPlanned,
		PlanContractions: s.PlanContractions + o.PlanContractions,
		PlanPairsPruned:  s.PlanPairsPruned + o.PlanPairsPruned,
		PlanEndSide:      s.PlanEndSide + o.PlanEndSide,
		PlanNanos:        s.PlanNanos + o.PlanNanos,
		MaskHits:         s.MaskHits + o.MaskHits,
		MaskRecomputes:   s.MaskRecomputes + o.MaskRecomputes,
		MaskExtensions:   s.MaskExtensions + o.MaskExtensions,
	}
	if s.ReachCap != o.ReachCap {
		out.ReachCap = -1
	}
	return out
}

// PlanCacheStats returns the engine-wide plan-cache counters. Unlike the
// per-cursor query counters, these are shared by all clones: a hit on any
// cursor counts here.
func (ev *Evaluator) PlanCacheStats() PlanCacheStats {
	eng := ev.engine
	cap := int(eng.reachCap.Load())
	st := PlanCacheStats{
		Hits:             eng.planHits.Value(),
		Misses:           eng.planMisses.Value(),
		ReachEvictions:   eng.reachEvictions.Value(),
		ReachCap:         cap,
		ReachCapMin:      cap,
		ReachCapMax:      cap,
		PlansPlanned:     eng.plansPlanned.Value(),
		PlanContractions: eng.planContractions.Value(),
		PlanPairsPruned:  eng.planPairsPruned.Value(),
		PlanEndSide:      eng.planEndSide.Value(),
		PlanNanos:        eng.planNanos.Value(),
	}
	eng.planMu.RLock()
	for _, ent := range eng.plans {
		if ent.reach != nil {
			st.ReachEntries += ent.reach.len()
		}
	}
	eng.planMu.RUnlock()
	return st
}
