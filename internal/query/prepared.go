package query

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/pathmodel"
)

// Prepared is a compiled explanation path bound to one evaluator cursor: the
// handle returned by Evaluator.Prepare. The compiled plan behind it lives in
// the engine-level plan cache and is shared by every cursor cloned from the
// same evaluator, so preparing the same path (or any path with the same
// canonical condition set) on any cursor reuses one compilation.
//
// A Prepared is as concurrency-safe as the cursor it came from: the shared
// plan entry may be read from any number of goroutines, but the handle
// counts queries on its owning cursor, so use one handle (from one cloned
// cursor) per goroutine. The range methods are the primitive for sharding
// one whole-log evaluation across workers: disjoint [lo, hi) ranges
// evaluated on per-worker cursors into one mask set exactly the bits of the
// full-range result.
type Prepared struct {
	ev  *Evaluator
	ent *cachedPlan
}

// Prepare compiles p once and returns a reusable handle. The compiled plan
// is looked up in (and installed into) the engine's shared plan cache keyed
// by the path's canonical condition key, so repeated Prepare calls — from
// this cursor or any clone — do not recompile, and two paths imposing the
// same condition set share one plan.
//
// Compiling a plan reads no rows: the plan's first evaluation lowers its
// ops onto dictionary IDs (see cachedPlan.lower), so a caller that prepares
// a plan and never evaluates it — a warm start registering its snapshot's
// plans — pays almost nothing.
//
// Invalidation is append-aware and two-tier: a schema mutation
// (relation.Database.SchemaVersion — AddTable, including replacement)
// drops the whole cache, while row appends invalidate only the entries
// whose lowered plans snapshotted the appended table (each entry records
// the version of every table it read when it was lowered). Appending
// audited log rows therefore costs nothing here: plans survive, and only
// the log-column projections extend. Callers holding a *Prepared across a
// mutation should re-Prepare — the handle pins the snapshot of its first
// evaluation.
func (ev *Evaluator) Prepare(p pathmodel.Path) *Prepared {
	key := p.CanonicalKey()
	for {
		ent := ev.engine.planEntry(key)
		ent.compileOnce.Do(func() {
			t0 := time.Now()
			ent.pl = ev.compile(p)
			ent.exec = &execStats{ops: make([]opExecCounters, len(ent.pl.ops))}
			ent.forward = p.Forward()
			ent.compileNanos = time.Since(t0).Nanoseconds()
		})
		if ent.fresh() {
			return &Prepared{ev: ev, ent: ent}
		}
		// A dependency grew since this entry was lowered: its snapshotted
		// projections are stale. Drop it and recompile against current rows.
		ev.engine.dropPlan(ent)
	}
}

// orient returns the start and end ID columns among (patients, users) for
// the orientation the shared plan was compiled in. Two paths with equal
// canonical keys can differ in orientation (a closed path and its reverse
// impose the same condition set); the plan's own orientation is the one its
// ops expect, and the explained/connected row set is orientation-invariant,
// so results are identical either way.
func (pp *Prepared) orient(patients, users []uint32) (starts, ends []uint32) {
	if pp.ent.forward {
		return patients, users
	}
	return users, patients
}

// rowUnits returns the rows [lo, hi) as eval's units, oriented. The
// snapshot covers every audited row, including ones appended after the
// handle was prepared (see engine.idProjections).
func (pp *Prepared) rowUnits(lo, hi int) (from, target []uint32) {
	pr := pp.ev.idProjections()
	return pp.orient(pr.patientID[lo:hi], pr.userID[lo:hi])
}

// checkRange validates a half-open row range against the audited log.
func (ev *Evaluator) checkRange(lo, hi int) {
	if n := ev.log.NumRows(); lo < 0 || hi < lo || hi > n {
		panic(fmt.Sprintf("query: range [%d, %d) out of bounds for %d log rows",
			lo, hi, n))
	}
}

// Support returns COUNT(DISTINCT Log.Lid) of the prepared path's support
// query, exactly as Evaluator.Support but without recompiling.
func (pp *Prepared) Support() int {
	return pp.SupportRange(0, pp.ev.log.NumRows())
}

// SupportRange is Support counted over the log rows [lo, hi): disjoint
// ranges sum to the full-log support. The whole log is counted over its
// distinct (patient, user) pairs, each weighted by its rows and laid out
// once per snapshot (see logProj.wholeLog); any other range row by row. It
// panics on out-of-bounds ranges.
func (pp *Prepared) SupportRange(lo, hi int) int {
	pp.ev.checkRange(lo, hi)
	pp.ev.queriesEvaluated++
	if pr := pp.ev.idProjections(); lo == 0 && hi == len(pr.pairID) {
		return pp.eval(pr.wholeLog(pp.ent.forward, pp.ent.pl.closed, &pp.ev.scratch, len(pp.ev.engine.dict.values())), nil, 0)
	}
	from, target := pp.rowUnits(lo, hi)
	return pp.eval(units{from: from, target: target}, nil, 0)
}

// ExplainedRange evaluates the closed path over the half-open log-row range
// [lo, hi) and sets bit r of dst for each row r in it the path explains. It
// touches no other bit of dst, so disjoint ranges evaluated into one dst set
// exactly the bits of the full-range result, which is what lets one
// template mask be sharded across a worker pool. Several goroutines may
// share one dst only when every boundary between their ranges is a multiple
// of 64: dst is not synchronized, and aligned ranges write disjoint words.
// It panics on open paths, on out-of-bounds ranges and when dst is shorter
// than hi. Each call counts as one evaluated query on the owning cursor.
func (pp *Prepared) ExplainedRange(lo, hi int, dst *bitset.Bits) {
	if !pp.ent.pl.closed {
		panic("query: ExplainedRange requires a closed path")
	}
	pp.rangeRows(lo, hi, dst)
}

// rangeRows classifies the rows [lo, hi) into dst as one evaluated query.
func (pp *Prepared) rangeRows(lo, hi int, dst *bitset.Bits) {
	pp.ev.checkRange(lo, hi)
	pp.ev.queriesEvaluated++
	from, target := pp.rowUnits(lo, hi)
	pp.eval(units{from: from, target: target}, dst, lo)
}

// ConnectedRows returns a mask over the log rows whose bit r is set when
// the open path's start value at row r can begin a satisfiable chain. This
// scores "event" indicators such as the paper's Figure 6 bars (the patient
// had an appointment with anyone). It panics on closed paths.
func (pp *Prepared) ConnectedRows() *bitset.Bits {
	if pp.ent.pl.closed {
		panic("query: ConnectedRows requires an open path")
	}
	n := pp.ev.log.NumRows()
	out := bitset.New(n)
	pp.rangeRows(0, n, out)
	return out
}

// cachedPlan is one entry of the engine-level plan cache: the compiled plan
// and the orientation it was compiled in. Entries are installed empty under
// the cache lock and filled exactly once via compileOnce, so concurrent
// Prepare calls for the same key block on one compilation instead of
// duplicating it; lowerOnce likewise lowers the plan once, on the first
// evaluation through any cursor.
type cachedPlan struct {
	key         string
	compileOnce sync.Once
	pl          plan
	forward     bool

	// exec is the plan's per-op execution tally (see exec.go), allocated
	// inside compileOnce so every cursor evaluating the plan shares one
	// array. It accumulates only while SetExecStats(true).
	exec *execStats

	// compileNanos is the wall time compileOnce took; lower adds its own
	// time and observes the sum into query.plan.compile_nanos.
	compileNanos int64

	lowerOnce sync.Once

	// lowered is set once lowerOnce has filled in the ops and deps; it is
	// what publishes deps to fresh, which may run on a cursor that has not
	// passed lowerOnce.
	lowered atomic.Bool

	// bytes is what the entry contributes to query.plan.resident_bytes while
	// it is in the cache (guarded by the engine's planMu).
	bytes int64

	// deps holds the lowered forms the plan's ops read, each with the
	// version of the table it was built from. A table that has moved on
	// means its forms are stale; Prepare then drops this entry alone. Plans
	// whose dependencies did not change — in particular every plan during a
	// pure audited-log append — stay cached, which is what makes
	// incremental auditing O(new rows) rather than O(recompile).
	deps []*base
}

// fresh reports whether every table the plan snapshotted is unchanged; a
// plan not lowered yet snapshotted nothing. It must only be called after
// compileOnce has completed.
func (ent *cachedPlan) fresh() bool { return !ent.lowered.Load() || current(ent.deps) }

// current reports whether every lowered form in bs but the nil ones is at
// its table's current version.
func current(bs []*base) bool {
	for _, b := range bs {
		if b != nil && b.t.Version() != b.version {
			return false
		}
	}
	return true
}

// lower fills in the ID form of every op of the plan, once, from the
// current rows of the tables it reads, and keeps those forms as the plan's
// deps. It then counts the entry's bytes and observes the plan's
// compile and lowering time, so query.plan.compile_nanos counts the plans
// that were evaluated, once each. The table contract forbids appends while
// queries run, so each base's version is the version of the rows lowered.
func (ent *cachedPlan) lower(eng *engine) {
	ent.lowerOnce.Do(func() {
		t0 := time.Now()
		for i := range ent.pl.ops {
			o := &ent.pl.ops[i]
			if o.t == nil {
				continue
			}
			b := eng.lowered(o.t, o.key)
			o.pairs, o.index = b.pairs, b.set
			ent.deps = append(ent.deps, b)
		}
		eng.countResident(ent)
		eng.compileNanos.Observe(ent.compileNanos + time.Since(t0).Nanoseconds())
		ent.lowered.Store(true)
	})
}

// dropPlan removes ent from the cache if it is still the resident entry for
// its key, so the next lookup installs a fresh entry and recompiles.
// Concurrent droppers are idempotent; a racing Prepare that re-installed a
// newer entry under the same key is left alone.
func (eng *engine) dropPlan(ent *cachedPlan) {
	eng.planMu.Lock()
	if eng.plans[ent.key] == ent {
		delete(eng.plans, ent.key)
		eng.planBytes.Add(-ent.bytes)
	}
	eng.planMu.Unlock()
}

// countResident records the freshly lowered ent's op arrays in
// query.plan.resident_bytes, provided it is still the cached entry for its
// key; whatever removes a counted entry from the cache subtracts ent.bytes
// again.
func (eng *engine) countResident(ent *cachedPlan) {
	n := 0
	for _, o := range ent.pl.ops {
		if o.pairs != nil {
			n += 4 * (len(o.pairs.off) + len(o.pairs.to))
		}
		n += 8 * len(o.index)
	}
	eng.planMu.Lock()
	if eng.plans[ent.key] == ent {
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
	ent := &cachedPlan{key: key}
	eng.plans[key] = ent
	return ent
}

// PlanCacheStats is a snapshot of the engine-wide plan-cache counters.
type PlanCacheStats struct {
	// Hits and Misses count plan-cache lookups (Prepare calls) across every
	// cursor sharing the engine.
	Hits, Misses int64

	// PlansPlanned counts the plans the engine compiled and lowered, and
	// PlanNanos their total compile-plus-lowering wall time in nanoseconds
	// (each plan is timed once, when its first evaluation lowers it; a
	// plan prepared but never evaluated is not counted).
	PlansPlanned int64
	PlanNanos    int64

	// MaskHits, MaskRecomputes, and MaskExtensions count the auditing
	// layer's template-mask cache outcomes: masks served as-is, masks built
	// (or rebuilt) from row 0, and masks extended in place over appended log
	// rows. The query engine itself does not fill them — they belong to the
	// mask cache stacked on top of it (core.Auditor.PlanCacheStats reports
	// the combined snapshot) — but they live here so single-engine and
	// federated displays aggregate one struct.
	MaskHits, MaskRecomputes, MaskExtensions int64
}

// Add returns the element-wise sum of two snapshots, which is how a
// federation folds the plan caches of its engines into one logical view.
func (s PlanCacheStats) Add(o PlanCacheStats) PlanCacheStats {
	return PlanCacheStats{
		Hits:           s.Hits + o.Hits,
		Misses:         s.Misses + o.Misses,
		PlansPlanned:   s.PlansPlanned + o.PlansPlanned,
		PlanNanos:      s.PlanNanos + o.PlanNanos,
		MaskHits:       s.MaskHits + o.MaskHits,
		MaskRecomputes: s.MaskRecomputes + o.MaskRecomputes,
		MaskExtensions: s.MaskExtensions + o.MaskExtensions,
	}
}

// PlanCacheStats returns the engine-wide plan-cache counters. Unlike the
// per-cursor query counters, these are shared by all clones: a hit on any
// cursor counts here.
func (ev *Evaluator) PlanCacheStats() PlanCacheStats {
	eng := ev.engine
	return PlanCacheStats{
		Hits:         eng.planHits.Value(),
		Misses:       eng.planMisses.Value(),
		PlansPlanned: eng.compileNanos.Count(),
		PlanNanos:    eng.compileNanos.Sum(),
	}
}
