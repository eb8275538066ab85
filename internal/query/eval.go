// Package query executes explanation paths against a relation.Database. It
// stands in for the PostgreSQL layer of the paper's prototype (§5.1),
// providing the two primitives mining needs:
//
//   - Support: the exact COUNT(DISTINCT Log.Lid) of the path's
//     support-counting query (§3.2), evaluated with per-table DISTINCT
//     projections (the "Reducing Result Multiplicity" optimization), over
//     the log's distinct (patient, user) pairs with their multiplicities,
//     and with semi-join style value propagation instead of full joins;
//   - EstimateSupport: a cheap System-R style cardinality estimate standing
//     in for "asking the database optimizer for the number of log ids it
//     expects" (the "Skipping Non-Selective Paths" optimization), read off
//     the distinct counts of the interned ID columns.
//
// It also enumerates explanation instances (the bound tuple chains behind an
// individual access) so that templates can be rendered in natural language.
//
// Evaluation is organized around prepared plans: Evaluator.Prepare compiles
// a path once into a *Prepared handle whose Support, ExplainedRange and
// ConnectedRows methods evaluate it without recompiling. Row masks are
// bitset.Bits: ExplainedRange (and ExplainedRowsDecoratedRange for a
// decorated path) sets the bits of the rows it explains in a mask the
// caller passes in. Evaluator.Support is the one one-shot method, and
// because compiled plans are cached it too stops paying compilation cost
// after the first evaluation of a condition set.
//
// There is one execution path, and it reads dictionary IDs only. compile
// turns a path into its hops in declared order; a plan's first evaluation
// lowers them by counting over the tables' interned ID columns (dict.go);
// and every evaluation walks that chain depth-first from each unit — a row,
// or for whole-log support a distinct (patient, user) pair of the engine's
// pair column weighted by its rows — memoizing for each (op, value) the set
// of the call's targets it reaches, a bitset over the call's distinct end
// IDs (one bit for an open plan), in the cursor's scratch (lazy.go), so each
// sub-question is walked once per call. Nothing an evaluation computes is
// retained on the engine. Instances walks the same ops, compiled forward,
// for the bindings themselves (instances.go).
//
// # Concurrency contract
//
// An Evaluator is split into two parts. The engine — the database binding,
// the audited log, its ID and pair column projections, the value
// dictionary, the interned columns and lowered forms, and the shared plan
// cache — is created by NewEvaluatorWithLog and shared by every evaluator
// cloned from it. The plan cache is guarded by an RWMutex (and per-entry
// sync.Once for compilation and for lowering, as are the columns and
// lowered forms), so any number of cursors may Prepare and evaluate
// concurrently, reusing each other's compiled plans.
// The cache is keyed by the path's canonical condition key. A schema change
// (relation.Database.SchemaVersion: AddTable) drops it wholesale; an append
// drops only the plans that read the appended table; and an append to the
// audited log drops none, because the log projections extend in place.
//
// The Evaluator itself is a cheap cursor over that engine: it carries the
// per-caller statistics counters, the lazy walk's scratch memo and its
// instance walks (pointers to the engine's lowered forms plus scratch), the
// latter two built on first use, so Clone costs one small allocation. A
// single cursor is NOT safe for concurrent use. The supported concurrent
// pattern is one cursor per goroutine: each worker clones the evaluator,
// prepares (cheaply, through the shared cache) the paths it needs, and
// evaluates — typically a disjoint log-row range via SupportRange, or via
// ExplainedRange into one shared mask cut at multiples of 64. Cursors cloned with one InstanceMemo (CloneWithMemo) also
// share instance bindings, lock-free, for the life of one call over an
// unchanging log. The only additional requirement is the table contract: no
// table reachable from the database may be Appended while queries run (see
// relation.Table); mutations between query phases are handled by the cache
// invalidation above.
package query

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// engine is the shareable part of an Evaluator: the database, the audited
// log, the log's ID projections, the dense-ID layer, and the compiled-plan
// cache. The projections are extended under projMu and published
// atomically; the rest is internally synchronized, so any number of cursors
// may use the engine concurrently.
type engine struct {
	db  *relation.Database
	log *relation.Table

	// The audited log's Patient, User, Date and Lid column positions,
	// immutable after construction.
	logPatientIdx, logUserIdx int
	logDateIdx, logLidIdx     int

	// dict interns every join value into a dense ID; cols caches the ID form
	// of each table column plans, estimates and instance walks read, and
	// bases each lowered form they walk (see dict.go). baseMu guards the two
	// maps, never the building of an entry.
	dict   dict
	baseMu sync.Mutex
	cols   map[colKey]*idCol
	bases  map[baseKey]*base

	// pairs numbers the audited log's distinct (patient ID, user ID) pairs,
	// keyed patient<<32 | user, for idProjections' pair column. Guarded by
	// projMu.
	pairs map[uint64]uint32

	// history is the first-access table of a history Log that is not the
	// audited log (see repeat.go), guarded by historyMu.
	historyMu sync.Mutex
	history   *historyFirst

	// proj is the audited log's ID projections (see logProj), published
	// atomically so they can be *extended* when the log grows:
	// idProjections interns the rows beyond the snapshot and swaps in a
	// fresh header under projMu. Readers holding an older snapshot see a
	// clean prefix — appended rows only ever land beyond their length —
	// which is what makes query evaluation append-aware without a rebuild.
	proj   atomic.Pointer[logProj]
	projMu sync.Mutex

	// planMu guards plans and planVersion. plans caches compiled plans by
	// canonical condition key; planVersion is the database *schema* version
	// (relation.Database.SchemaVersion) the cache was built against, and a
	// mismatch drops the whole cache (see planEntry) — AddTable may have
	// swapped any table wholesale. Pure appends do not touch the schema
	// version; they are detected per entry through the compiled plan's table
	// dependencies (cachedPlan.deps), so appending log rows leaves every
	// plan that does not read the appended table intact. Hit/miss counters
	// are engine-wide atomics shared by all cursors.
	planMu      sync.RWMutex
	plans       map[string]*cachedPlan
	planVersion uint64

	// reg is the engine's metrics registry. Every counter below is a named
	// metric in it, resolved once at construction so the hot paths pay one
	// atomic add, never a registry lookup. The registry is per-engine — each
	// engine of a Join federation carries its own, keeping per-shard
	// snapshots attributable — and PlanCacheStats remains the compatibility
	// view over it.
	reg *obs.Registry

	planHits   *obs.Counter // query.plan.hits
	planMisses *obs.Counter // query.plan.misses

	// dictValues is the dictionary size (query.dict.values); planBytes sums
	// the CSR and bitset bytes of the plans resident in the cache
	// (query.plan.resident_bytes), base projections shared by several plans
	// counted once per plan.
	dictValues *obs.Gauge
	planBytes  *obs.Gauge

	// compileNanos is the query.plan.compile_nanos histogram, observed once
	// per plan when the plan is lowered on its first evaluation: the wall
	// time of compiling its structure plus lowering it. A prepared plan
	// that is never evaluated is never observed. Its count and sum are
	// PlanCacheStats.PlansPlanned and PlanNanos.
	compileNanos *obs.Histogram

	// execOn enables per-op execution statistics (rows in/out, postings,
	// memo hits — see exec.go); the zero value, disabled, is the default.
	// Disabled cost is one atomic load per evaluation entry point plus a nil
	// check per op visit.
	execOn atomic.Bool

	// Instance enumeration totals (query.instances.calls / .nodes /
	// .bindings), flushed from cursor-local ints (see FlushStats): nodes ÷
	// bindings is the work the walk spends per explanation instance it
	// produces (at best the path length + 1, less when one expansion yields
	// several bindings).
	instCalls, instNodes, instBindings *obs.Counter

	// Instance-memo outcomes (query.instances.memo_hits / .memo_misses):
	// Instances calls on a memo-backed cursor served from the memo, and
	// those that walked and published (see InstanceMemo).
	instMemoHits, instMemoMisses *obs.Counter
}

// initMetrics creates the engine's registry and resolves every named metric
// the hot paths charge.
func (eng *engine) initMetrics() {
	reg := obs.NewRegistry()
	eng.reg = reg
	eng.planHits = reg.Counter("query.plan.hits")
	eng.planMisses = reg.Counter("query.plan.misses")
	eng.dictValues = reg.Gauge("query.dict.values")
	eng.planBytes = reg.Gauge("query.plan.resident_bytes")
	eng.compileNanos = reg.Histogram("query.plan.compile_nanos")
	eng.instCalls = reg.Counter("query.instances.calls")
	eng.instNodes = reg.Counter("query.instances.nodes")
	eng.instBindings = reg.Counter("query.instances.bindings")
	eng.instMemoHits = reg.Counter("query.instances.memo_hits")
	eng.instMemoMisses = reg.Counter("query.instances.memo_misses")
}

// Evaluator executes paths against one database. It is a cheap per-caller
// cursor over a shared immutable engine; see the package comment for the
// concurrency contract. An individual Evaluator is not safe for concurrent
// use — use Clone to give each goroutine its own cursor.
type Evaluator struct {
	*engine

	// Work counters the package's tests read (export_test.go). Per-cursor:
	// queries run through a clone are counted on that clone only.
	queriesEvaluated int
	estimatesIssued  int

	// postingsScanned counts index postings and pair-list entries consumed
	// by lazy evaluation and instance enumeration on this cursor — the
	// observable the early-termination tests pin: Instances(limit) and
	// existence checks must stop consuming once their set is full (after
	// the first witness, for an open plan).
	postingsScanned int

	// enums holds this cursor's instance walks by path identity: pointers
	// to the engine's lowered forms, walk scratch and the resolved memo
	// table (see instances.go). Cursor-local — never shared between
	// goroutines — and empty on every Clone.
	enums map[*pathmodel.Cond]*instEnum

	// scratch is the memo and row-grouping state lazy plan evaluation reuses
	// from call to call (see dict.go). Cursor-local like enums.
	scratch scratch

	// memo is the shared instance-binding memo this cursor was cloned with,
	// if any, and its cursor-local state (see InstanceMemo).
	memo memoCursor

	// inst is the cursor's query.instances.* counts not yet added to the
	// engine's counters (see FlushStats).
	inst instTally
}

// NewEvaluator creates an evaluator over db, which must contain a table
// named Log with Lid, Date, User, and Patient columns. The audited rows and
// the Log instances referenced by paths come from the same table.
func NewEvaluator(db *relation.Database) *Evaluator {
	return NewEvaluatorWithLog(db, db.MustTable(pathmodel.LogTable))
}

// NewEvaluatorWithLog creates an evaluator whose *audited* rows come from
// audited, while the Log instances referenced inside paths (self-joins such
// as the repeat-access template) resolve against db's Log table. This is how
// the predictive-power experiments (§5.3.4) classify day-7 test accesses
// against the historical days-1-6 log: a test access may only be "explained
// by a previous access" if its pair appears in the past log — it must not
// match itself in the test set.
func NewEvaluatorWithLog(db *relation.Database, audited *relation.Table) *Evaluator {
	log := audited
	eng := &engine{db: db, log: log, plans: make(map[string]*cachedPlan), planVersion: db.SchemaVersion(),
		cols: make(map[colKey]*idCol), bases: make(map[baseKey]*base), pairs: make(map[uint64]uint32)}
	eng.dict = newDict()
	eng.initMetrics()
	col := func(name string) int {
		c, ok := log.ColumnIndex(name)
		if !ok {
			panic("query: Log table lacks " + name + " column")
		}
		return c
	}
	eng.logPatientIdx, eng.logUserIdx = col(pathmodel.LogPatientColumn), col(pathmodel.LogUserColumn)
	eng.logDateIdx, eng.logLidIdx = col(pathmodel.LogDateColumn), col(pathmodel.LogIDColumn)
	eng.proj.Store(&logProj{whole: new([2]pairUnits)})
	return &Evaluator{engine: eng}
}

// Metrics returns the engine's metrics registry — the observability surface
// behind PlanCacheStats, shared by every cursor cloned from this evaluator.
// Layers stacked on the engine (the auditor's mask cache) register their
// metrics here so one snapshot describes the whole engine.
func (ev *Evaluator) Metrics() *obs.Registry { return ev.engine.reg }

// logProj is one immutable-prefix snapshot of the audited log's Patient
// and User columns as dictionary IDs, the only form evaluation reads:
// patientID[r] and userID[r] for a prefix of the rows (none until a plan is
// first evaluated — see idProjections). Snapshots are extended, never
// rewritten — see engine.proj.
//
// The pair column factorises the log by (patient, user), the pair a path
// explains: pairID[r] numbers row r's pair densely in first-appearance
// order, and pair p is (pairPatient[p], pairUser[p]) and holds pairRows[p]
// of the rows the ID columns cover. An undecorated template's verdict is a
// function of the pair, so whole-log support walks the pairs weighted by
// their rows (Prepared.SupportRange), laid out once (wholeLog). pairFirst[p]
// is the earliest (Date, Lid) among pair p's rows, the repeat-access state
// of a log that is its own history (see repeat.go).
type logProj struct {
	patientID, userID []uint32

	pairID                          []uint32
	pairPatient, pairUser, pairRows []uint32
	pairFirst                       []stamp

	whole *[2]pairUnits // see wholeLog; every snapshot has its own
}

// pairUnits is a snapshot's pairs as whole-log units in one orientation,
// laid out once: for closed plans and, since an open plan's verdict is a
// function of the start value alone, for open ones with one unit per
// start value that stands for all its rows.
type pairUnits struct {
	once         sync.Once
	closed, open units
}

// wholeLog returns the snapshot's pairs as eval's units for a plan oriented
// forward (from the patient) or not, closed or not. A closed plan's units
// are laid out with each block's units stored together and sorted by
// start value, so that a start's pairs in a block are adjacent and eval
// asks its sub-question once for them. They are built on first use, once
// per snapshot and orientation, with s's buffers and a dictionary of n
// values.
func (pr *logProj) wholeLog(forward, closed bool, s *scratch, n int) units {
	pu := &pr.whole[0]
	from, target := pr.pairUser, pr.pairPatient
	if forward {
		pu, from, target = &pr.whole[1], target, from
	}
	pu.once.Do(func() {
		byStart := make([]uint32, len(from))
		for p := range byStart {
			byStart[p] = uint32(p)
		}
		slices.SortStableFunc(byStart, func(a, b uint32) int { return cmp.Compare(from[a], from[b]) })
		sorted := units{from: permute(from, byStart), target: permute(target, byStart), weight: permute(pr.pairRows, byStart)}
		for k, v := range sorted.from {
			if k == 0 || v != sorted.from[k-1] {
				pu.open.from = append(pu.open.from, v)
				pu.open.weight = append(pu.open.weight, 0)
			}
			pu.open.weight[len(pu.open.weight)-1] += sorted.weight[k]
		}
		pu.open.cnt = []uint32{uint32(len(pu.open.from))}
		l := s.layOut(sorted, true, n)
		defer s.clearTargets()
		if l.order != nil {
			l.from, l.target, l.weight = permute(l.from, l.order), permute(l.target, l.order), permute(l.weight, l.order)
		}
		pu.closed = units{from: l.from, target: l.target, weight: l.weight, targets: slices.Clone(l.targets), cnt: slices.Clone(l.cnt)}
	})
	if closed {
		return pu.closed
	}
	return pu.open
}

// permute returns col reordered so that its k-th value is col[order[k]].
func permute(col, order []uint32) []uint32 {
	out := make([]uint32, len(order))
	for k, p := range order {
		out[k] = col[p]
	}
	return out
}

// idProjections returns a snapshot whose ID and pair columns cover every
// row, interning and numbering the rows they do not cover yet: the whole log
// on the first plan evaluation, the appended suffix after that. An appended
// row whose pair is known joins it. pairRows is copied first, and
// pairFirst before an appended row lowers an entry an older snapshot
// covers (an append out of (Date, Lid) order), so an older snapshot keeps
// its values and a chronological append copies no pairFirst. A caller
// that never evaluates a plan (a warm point render) never pays for
// interning the log. Like all query evaluation, it must not race with an
// Append to the log.
func (eng *engine) idProjections() *logProj {
	n := eng.log.NumRows()
	if pr := eng.proj.Load(); len(pr.patientID) == n {
		return pr
	}
	eng.projMu.Lock()
	defer eng.projMu.Unlock()
	next := *eng.proj.Load()
	next.whole = new([2]pairUnits)
	lo := len(next.patientID)
	d := &eng.dict
	d.mu.Lock()
	for r := lo; r < n; r++ {
		next.patientID = append(next.patientID, d.intern(eng.log.Cell(r, eng.logPatientIdx)))
		next.userID = append(next.userID, d.intern(eng.log.Cell(r, eng.logUserIdx)))
	}
	eng.dictValues.Set(int64(len(d.vals)))
	d.mu.Unlock()
	next.pairRows = slices.Clone(next.pairRows)
	shared := len(next.pairFirst) // entries the previous snapshot covers
	for r := lo; r < len(next.patientID); r++ {
		pt, u := next.patientID[r], next.userID[r]
		p, ok := eng.pairs[uint64(pt)<<32|uint64(u)]
		if !ok {
			p = uint32(len(next.pairRows))
			eng.pairs[uint64(pt)<<32|uint64(u)] = p
			next.pairPatient = append(next.pairPatient, pt)
			next.pairUser = append(next.pairUser, u)
			next.pairRows = append(next.pairRows, 0)
			next.pairFirst = append(next.pairFirst, noAccess)
		}
		next.pairID = append(next.pairID, p)
		next.pairRows[p]++
		if s := stampOf(eng.log, eng.logDateIdx, eng.logLidIdx, r); s.before(next.pairFirst[p]) {
			if int(p) < shared {
				next.pairFirst, shared = slices.Clone(next.pairFirst), 0
			}
			next.pairFirst[p] = s
		}
	}
	eng.proj.Store(&next)
	return &next
}

// Clone returns a new cursor over the same immutable engine: same database,
// log, projections and lowered forms, but fresh statistics counters. The
// clone may be used concurrently with the receiver and with other clones;
// this is the primitive the batch auditing engine hands to each worker.
func (ev *Evaluator) Clone() *Evaluator {
	return &Evaluator{engine: ev.engine}
}

// Database returns the database the evaluator is bound to.
func (ev *Evaluator) Database() *relation.Database { return ev.db }

// Log returns the log table the evaluator is bound to.
func (ev *Evaluator) Log() *relation.Table { return ev.log }

// opKind distinguishes the three step types of a compiled plan.
type opKind uint8

const (
	opBridge opKind = iota // translate values through a mapping table
	opMap                  // entry -> exit through one table instance
	opExists               // entry must exist in the final (open) instance
	opClose                // values are compared against Log.User per row
)

// op is one step of a compiled plan. compile fixes its structure — the
// kind, the table and the projection of it the op reads — and the plan's
// first evaluation fills in the ID form of that projection (pairs or
// index, see dict.go and cachedPlan.lower).
type op struct {
	kind  opKind
	table string
	t     *relation.Table // nil for opClose
	key   baseKey
	pairs *csr  // opBridge, opMap; nil until lowered
	index idSet // opExists; nil until lowered
}

// plan is a path's hops in declared order, walked from each row's start
// value; a closed plan ends in opClose.
type plan struct {
	ops    []op
	closed bool
}

// compile turns a path into a plan's structure, reading no rows; lower
// does the row work on first evaluation. It panics on malformed paths
// because those indicate a bug in path construction, which tests cover
// directly.
func (ev *Evaluator) compile(p pathmodel.Path) plan {
	insts := p.Instances()
	conds := p.Conds()
	var pl plan
	for i, c := range conds {
		if c.Via != nil {
			pl.ops = append(pl.ops, op{kind: opBridge, table: c.Via.Table, t: ev.db.MustTable(c.Via.Table),
				key: baseKey{table: c.Via.Table, a: c.Via.FromColumn, b: c.Via.ToColumn}})
		}
		if c.RightInst == 0 {
			if i != len(conds)-1 {
				panic("query: closing condition before end of path")
			}
			pl.ops = append(pl.ops, op{kind: opClose})
			pl.closed = true
			continue
		}
		in := insts[c.RightInst]
		o := op{kind: opMap, table: in.Table, t: ev.db.MustTable(in.Table), key: baseKey{table: in.Table, a: in.Entry, b: in.Exit}}
		if in.Exit == "" {
			o.kind = opExists
		}
		pl.ops = append(pl.ops, o)
	}
	if pl.closed != p.Closed() {
		panic("query: plan/path closed-state mismatch")
	}
	return pl
}

// Support returns COUNT(DISTINCT Log.Lid) for the path's support query: for
// a closed path, the number of log entries (p, u) connected by some tuple
// chain; for an open path, the number of log entries whose patient can start
// a satisfiable chain. Log rows are assumed to carry distinct Lids (the
// generator guarantees it), so the count is over rows. It is the one-shot
// convenience for Prepare(p).Support(); the compiled plan is cached, so
// repeated calls do not recompile.
func (ev *Evaluator) Support(p pathmodel.Path) int {
	return ev.Prepare(p).Support()
}

// EstimateSupport returns a cheap optimizer-style estimate of the support
// query's COUNT(DISTINCT Log.Lid). It applies the textbook equi-join
// selectivity 1/max(ndv(a), ndv(b)) hop by hop and clamps to the log size.
// Like a real optimizer it can err in both directions; the mining algorithm
// compensates with the constant c of §3.2.1.
func (ev *Evaluator) EstimateSupport(p pathmodel.Path) int {
	ev.estimatesIssued++
	insts := p.Instances()
	conds := p.Conds()

	// ndv reads a column's distinct count off its ID form (see
	// engine.column), which lowering shares.
	ndv := func(t *relation.Table, col string) float64 { return float64(ev.column(t, col).ndv) }
	rows := float64(ev.log.NumRows())
	ndvPrev := ndv(ev.log, p.StartColumn())

	join := func(tbl *relation.Table, entry, exit string) {
		tRows := float64(tbl.NumRows())
		ndvEntry := ndv(tbl, entry)
		if ndvEntry == 0 || tRows == 0 {
			rows = 0
			return
		}
		rows = rows * tRows / max(ndvPrev, ndvEntry)
		if exit != "" {
			ndvPrev = ndv(tbl, exit)
		} else {
			ndvPrev = ndvEntry
		}
	}

	for _, c := range conds {
		if c.Via != nil {
			join(ev.db.MustTable(c.Via.Table), c.Via.FromColumn, c.Via.ToColumn)
		}
		if c.RightInst == 0 {
			ndvEnd := ndv(ev.log, c.RightCol)
			rows = rows / max(ndvPrev, max(ndvEnd, 1))
			continue
		}
		in := insts[c.RightInst]
		join(ev.db.MustTable(in.Table), in.Entry, in.Exit)
	}
	return clampEstimate(rows, ev.log.NumRows())
}

// clampEstimate converts a float row estimate to an int clamped to [0, n].
// The clamp happens in float space: a huge estimate (long non-selective join
// chains multiply quickly) would overflow int64 in the conversion and wrap
// to a negative count, which an int-space clamp would then zero out —
// exactly the wrong answer for the skip-non-selective decision.
func clampEstimate(rows float64, n int) int {
	if !(rows > 0) { // also catches NaN
		return 0
	}
	if rows > float64(n) {
		return n
	}
	return int(rows)
}
