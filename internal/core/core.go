// Package core is the public facade of the explanation-based auditing
// library. An Auditor wires the substrates together — the relational
// database, the schema graph, collaborative-group inference, template
// mining, and natural-language rendering — behind the three operations the
// paper motivates:
//
//   - user-centric auditing: list every access to a patient's record with a
//     plain-language explanation of why it happened (Example 1.1);
//   - template management: mine frequent explanation templates for an
//     administrator to review (§3);
//   - misuse detection: surface the accesses that no template explains, the
//     shortlist a compliance office would investigate (§1).
//
// Every operation has one form: the ones that compute template masks take a
// context and a worker count and return an error, so a cancelled or failed
// audit can never read as "nothing unexplained". Auditing every access in a
// hospital-scale log is embarrassingly parallel across log rows, so the
// streams — StreamNDJSON, the NDJSON lines audit -stream writes, and
// StreamReports, the report structs those lines are tested against — shard
// the log over a worker pool of cloned evaluator cursors and produce
// results identical to a row-at-a-time ExplainRow loop (see the Auditor
// type comment for the concurrency contract), while Unexplained and
// ExplainedFraction answer from the template masks alone and render
// nothing. Template masks are
// themselves computed sharded: each template's log is split into ranges
// evaluated concurrently via explain.Template.EvaluateRange over shared
// prepared plans, so mask computation scales with cores even when few
// templates are registered.
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/accesslog"
	"repro/internal/bitset"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// Auditor answers explanation queries over one database and access log.
// Construct it with NewAuditor, optionally add collaborative groups with
// BuildGroups, then register templates (hand-crafted, mined, or both).
//
// # Concurrency contract
//
// Configuration (NewAuditor, BuildGroups, AddTemplates, ResetMaskCache)
// requires exclusive access. Once configured, the batch methods —
// StreamReports, StreamNDJSON, Unexplained, ExplainedFraction, Refresh,
// NewPass, StreamNDJSONRange and UnexplainedRange — are safe to
// call concurrently with each other: they fan work out to per-worker
// evaluator cursors (query.Evaluator.Clone), shard each missing template
// mask into log-row ranges over one worker pool (so even a one-template
// workload uses every worker), and guard the shared template-mask cache with
// a mutex. The per-worker cursors share the query engine's compiled-plan
// cache, so a template's path is compiled once no matter how many workers
// evaluate its shards. The point methods (ExplainRow, PatientReport and its
// Range form) bring masks up to date through the same path but
// render on the auditor's own cursor, so they must not run concurrently with
// anything else on the same Auditor.
type Auditor struct {
	db    *relation.Database
	graph *schemagraph.Graph
	ev    *query.Evaluator
	namer explain.Namer

	// auditedLog, when non-nil, is the table whose rows are audited in place
	// of the database's Log (see WithAuditedLog).
	auditedLog *relation.Table

	templates []explain.Template
	// byLength lists template indexes in ascending Length, registration
	// order among equals: the order a row's explanations are reported in.
	byLength []int

	// mu guards masks. A published maskEntry (and the packed bitset inside
	// it) is never mutated — refreshes copy-on-extend and swap the entry —
	// so entries may be read outside the lock once retrieved.
	mu sync.Mutex
	// masks caches each template's explained-rows mask, packed 64 rows to a
	// word, together with the watermark of log rows it covers. When the
	// audited log grows, an append-monotone template's mask is extended by
	// evaluating only rows [rows, NumRows) (see ensureMasks); anything else
	// is rebuilt from row 0.
	masks map[int]*maskEntry

	// Mask-cache outcome counters (see query.PlanCacheStats): masks served
	// as-is, built from row 0, and extended over appended rows
	// (core.mask.hits / .recomputes / .extensions in the engine's metrics
	// registry, resolved once at construction). Atomic counters so concurrent
	// batch calls can count without widening mu's critical sections;
	// concurrent callers racing to fill the same mask each count their own
	// outcome.
	maskHits, maskRecomputes, maskExtensions *obs.Counter

	// maskEvalNanos is the core.mask.eval_nanos histogram: wall time of each
	// mask evaluation shard, observed only when obs.Enabled (the gate for
	// anything that reads the clock).
	maskEvalNanos *obs.Histogram
}

// maskEntry is one cached template mask: the packed explained-rows bitset,
// the number of leading audited rows it covers, and the history-log append
// version it was computed against. All are immutable once the entry is
// published under mu.
//
// The two watermarks guard different staleness: rows tracks the *audited*
// table (the rows being classified), hist the database's Log table (the
// evidence history templates join against). For an ordinary auditor the two
// are the same table, but an auditor made WithAuditedLog (a Join shard's)
// audits one table while history is another — so a non-append-monotone
// template's mask must be rebuilt when the history grew even if the audited
// table did not (append-monotone templates are, by definition, immune to
// chronological history growth and only ever need the rows extension).
type maskEntry struct {
	bits *bitset.Bits
	rows int
	hist uint64
}

// histVersion returns the append watermark of the history log — the
// database's Log table, which templates join against — or 0 when the
// database has none.
func (a *Auditor) histVersion() uint64 {
	if t := a.db.Table(pathmodel.LogTable); t != nil {
		return t.AppendVersion()
	}
	return 0
}

// Option configures an Auditor.
type Option func(*Auditor)

// WithNamer installs a display-name resolver used when rendering
// explanations (for example, the dataset generator's ground-truth names).
func WithNamer(n explain.Namer) Option {
	return func(a *Auditor) { a.namer = n }
}

// WithAuditedLog makes the auditor classify and report the rows of t instead
// of the database's Log table, while path queries, the repeat-access history,
// and self-joins still resolve against db's Log. This is the primitive behind
// both the predictive-power protocol (audit test accesses against a
// historical log) and a federate.Join shard: each deployment's engine audits
// its own log while every template sees the merged log as history, which is
// what makes its reports identical to a single engine's over the merged log.
// (A federate.Split needs no audited log of its own: its shards are row
// ranges of one engine, see NewPass.) t must carry the Lid, Date, User, and
// Patient columns.
func WithAuditedLog(t *relation.Table) Option {
	return func(a *Auditor) { a.auditedLog = t }
}

// NewAuditor creates an auditor over db, whose Log table is the audited
// log (unless WithAuditedLog overrides it), using graph as the join-edge
// catalog.
func NewAuditor(db *relation.Database, graph *schemagraph.Graph, opts ...Option) *Auditor {
	a := &Auditor{
		db:    db,
		graph: graph,
		namer: explain.NullNamer{},
		masks: make(map[int]*maskEntry),
	}
	for _, o := range opts {
		o(a)
	}
	if a.auditedLog != nil {
		a.ev = query.NewEvaluatorWithLog(db, a.auditedLog)
	} else {
		a.ev = query.NewEvaluator(db)
	}
	// The auditing layer registers its metrics in the engine's registry, so
	// one snapshot describes the whole stack.
	reg := a.ev.Metrics()
	a.maskHits = reg.Counter("core.mask.hits")
	a.maskRecomputes = reg.Counter("core.mask.recomputes")
	a.maskExtensions = reg.Counter("core.mask.extensions")
	a.maskEvalNanos = reg.Histogram("core.mask.eval_nanos")
	return a
}

// Database returns the underlying database.
func (a *Auditor) Database() *relation.Database { return a.db }

// Evaluator returns the query evaluator bound to the auditor's database,
// for callers running custom path queries.
func (a *Auditor) Evaluator() *query.Evaluator { return a.ev }

// Log returns the audited log: the table whose row indexes ExplainRow and
// Unexplained speak of (the database's Log, unless WithAuditedLog chose
// another).
func (a *Auditor) Log() *relation.Table { return a.ev.Log() }

// MetricsSnapshot returns the auditor's metrics view: the engine registry
// (query-plan and mask-cache metrics) merged with the process-wide
// obs.Default registry (worker-pool, stream and store metrics).
func (a *Auditor) MetricsSnapshot() map[string]obs.Metric {
	return obs.Merge(a.ev.Metrics().Snapshot(), obs.Default.Snapshot())
}

// DefaultGroupsTable is the table name BuildGroups installs when
// GroupsOptions.TableName is empty. Layers that rebuild the Groups table
// themselves (the federation trains one over a merged log) use the same
// name so their databases are interchangeable with BuildGroups output.
const DefaultGroupsTable = "Groups"

// DefaultGroupsMaxDepth is the hierarchy depth BuildGroups uses when
// GroupsOptions.MaxDepth is unset (the paper found 8 levels).
const DefaultGroupsMaxDepth = 8

// GroupsOptions configures collaborative-group inference.
type GroupsOptions struct {
	// TrainLog is the log to cluster on (defaults to the auditor's log). The
	// paper trains on days 1-6 and evaluates on day 7.
	TrainLog *relation.Table
	// MaxDepth bounds the hierarchy depth (the paper found 8 levels).
	MaxDepth int
	// TableName is the name of the materialized table (default "Groups").
	TableName string
}

// BuildGroups infers collaborative user groups from an access log (§4),
// installs the Groups table into the database, and returns the hierarchy.
// It must be called before registering templates that reference Groups.
func (a *Auditor) BuildGroups(opt GroupsOptions) *groups.Hierarchy {
	trainLog := opt.TrainLog
	if trainLog == nil {
		trainLog = a.ev.Log()
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = DefaultGroupsMaxDepth
	}
	if opt.TableName == "" {
		opt.TableName = DefaultGroupsTable
	}
	h := groups.Train(trainLog, opt.MaxDepth)
	// Rebinding is unnecessary (the evaluator holds the same *Database), and
	// AddTable drops only the cached masks of templates that read the
	// replaced table — templates over unrelated event tables keep theirs.
	// The evaluator's plan cache self-invalidates: AddTable bumped the
	// database schema version.
	a.AddTable(h.Table(opt.TableName))
	return h
}

// ResetMaskCache drops every cached template mask, forcing the next batch or
// single-row call to re-evaluate. Call it after mutating the database
// underneath a configured auditor (the compiled-plan cache below it
// invalidates itself via the database version, but masks are owned here).
// It requires the same exclusive access as the other configuration methods.
func (a *Auditor) ResetMaskCache() {
	a.mu.Lock()
	a.masks = make(map[int]*maskEntry)
	a.mu.Unlock()
}

// AddTable registers t in the auditor's database (replacing any table of
// the same name) and drops only the cached template masks the change can
// affect: masks of templates that read t's table, plus masks of template
// types whose reads cannot be introspected. Registering a table no
// template touches — a new event feed, say — keeps every cached mask, and
// replacing the Groups table after re-clustering recomputes only the
// group-template masks. Like the other configuration methods, AddTable
// requires exclusive access.
//
// Replacing the Log table is NOT supported on a live auditor: the query
// engine pins the audited table (and its column projections) at
// construction, so a swapped-in Log would leave the auditor classifying
// the old rows against the new history. AddTable defensively resets the
// whole mask cache in that case, but the supported operation is building a
// new Auditor over the changed database; to grow the log, Append to the
// existing table and Refresh.
func (a *Auditor) AddTable(t *relation.Table) {
	a.db.AddTable(t)
	a.invalidateMasksReading(t.Name())
}

// invalidateMasksReading drops the cached masks of every template that
// (possibly) reads the named table.
func (a *Auditor) invalidateMasksReading(table string) {
	if table == pathmodel.LogTable {
		// The audited rows themselves (or the history every template's
		// classification is defined over) changed wholesale.
		a.ResetMaskCache()
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.templates {
		if slices.Contains(explain.TemplateTables(a.templates[i]), table) {
			delete(a.masks, i)
		}
	}
}

// AddTemplates registers explanation templates. Templates are consulted in
// registration order; explanations for one access are ranked by ascending
// path length, as in §2.1. Masks of previously registered templates stay
// cached — the new templates' masks are computed lazily on first use.
func (a *Auditor) AddTemplates(ts ...explain.Template) {
	a.templates = append(a.templates, ts...)
	a.byLength = a.byLength[:0]
	for i := range a.templates {
		a.byLength = append(a.byLength, i)
	}
	slices.SortStableFunc(a.byLength, func(i, j int) int {
		return cmp.Compare(a.templates[i].Length(), a.templates[j].Length())
	})
}

// Templates returns the registered templates.
func (a *Auditor) Templates() []explain.Template { return a.templates }

// MineTemplates runs the named mining algorithm ("one-way", "two-way", or
// "bridge-N") over the auditor's database and returns the supported
// templates without registering them — the paper keeps the administrator in
// the loop to approve mined templates. Wrap approved paths with
// explain.NewPathTemplate and pass them to AddTemplates.
func (a *Auditor) MineTemplates(algo string, opt mine.Options) (mine.Result, error) {
	return mine.Run(algo, a.ev, a.graph, opt)
}

// Refresh brings every cached template mask (and, transitively, the query
// engine's log projections) up to date with rows appended to the audited
// log since the masks were computed, evaluating only the appended suffix of
// each append-monotone template — O(new rows), not O(log) — over a pool of
// parallelism workers. Masks of templates that are not append-monotone (see
// explain.AppendMonotone) are rebuilt in the same pass, and templates with
// no cached mask are computed in full, so after Refresh every mask covers
// the whole log. The batch methods refresh lazily through the same policy;
// Refresh exists to pay the cost at a chosen time (an ingest tick) and is
// safe to call concurrently with them.
//
// Appended rows must follow the access-log contract the incremental
// differential tests pin down: they sort after every pre-existing row by
// (Date, Lid), which is what an append-only chronological log produces;
// their Lids need not increase across Dates. Destructive changes (table replacement)
// instead go through AddTable/ResetMaskCache.
func (a *Auditor) Refresh(ctx context.Context, parallelism int) error {
	_, err := a.ensureMasks(ctx, parallelism)
	return err
}

// Explanation is one rendered explanation for one access.
type Explanation struct {
	Template string // template name
	Length   int    // path length (explanations are ranked ascending)
	Text     string // natural-language instance
}

// AccessReport describes one log row and its explanations.
type AccessReport struct {
	Lid          int64
	Date         relation.Value
	User         relation.Value
	Patient      relation.Value
	UserName     string
	Explanations []Explanation
}

// Explained reports whether any template explains the access.
func (r AccessReport) Explained() bool { return len(r.Explanations) > 0 }

// ExplainRow builds the report for one log row index, bringing the template
// masks up to date first (see ensureMasks). It renders on the auditor's own
// cursor; StreamReports is the concurrent batch equivalent and produces
// identical reports.
func (a *Auditor) ExplainRow(row int, maxPerTemplate int) (AccessReport, error) {
	if n := a.ev.Log().NumRows(); row < 0 || row >= n {
		return AccessReport{}, fmt.Errorf("core: row %d out of range [0, %d)", row, n)
	}
	ps, err := a.prepare(context.TODO(), 0)
	if err != nil {
		return AccessReport{}, err
	}
	return a.explainRowWith(a.ev, ps, row, maxPerTemplate), nil
}

// AppendNDJSONRows appends the NDJSON lines of audited rows [lo, hi) to dst
// — the bytes StreamNDJSON writes for those rows — with the templates
// compiled once for the call. Like ExplainRow it brings the masks up to
// date and renders on the auditor's own cursor; follow mode encodes each
// appended batch with it.
func (a *Auditor) AppendNDJSONRows(dst []byte, lo, hi int) ([]byte, error) {
	if err := checkRange(lo, hi, a.ev.Log().NumRows()); err != nil {
		return dst, err
	}
	ps, err := a.prepare(context.TODO(), 0)
	if err != nil {
		return dst, err
	}
	for r := lo; r < hi; r++ {
		dst, _ = a.appendRowNDJSON(dst, a.ev, ps, r)
	}
	return dst, nil
}

// defaultPerTemplate is the number of explanation instances a template
// renders per access when the caller asks for none in particular.
const defaultPerTemplate = 3

// Pass is what one rendering call works from, shared read-only by its
// workers: the template masks brought up to date, the templates compiled
// for this call (explain.Compile) in registration order, and — for a
// streaming call — the instance memo its cursors share. It lives no longer
// than the call, so a table AddTable replaces between two calls is never
// rendered from. NewPass makes one for the range streams.
type Pass struct {
	a     *Auditor
	masks []*bitset.Bits
	progs []explain.Program
	cols  pathmodel.LogColumns
	// rows is the number of audited rows the masks cover.
	rows int
	// memo is nil for a point call, which renders on the auditor's own
	// cursor.
	memo *query.InstanceMemo
}

// prepare brings the masks up to date with parallelism workers and
// compiles the templates for one call.
func (a *Auditor) prepare(ctx context.Context, parallelism int) (*Pass, error) {
	n := a.ev.Log().NumRows()
	masks, err := a.ensureMasks(ctx, parallelism)
	if err != nil {
		return nil, err
	}
	return &Pass{a: a, masks: masks, progs: explain.Compile(a.ev, a.namer, a.templates), cols: pathmodel.LogColumnsOf(a.ev.Log()), rows: n}, nil
}

// NewPass brings the masks up to date with parallelism workers, compiles
// the templates and makes an instance memo over the audited rows as they
// are now: the state one streaming call renders from. StreamNDJSONRange
// calls handed the same pass stream their ranges as parts of one call,
// sharing the masks, the programs and the memo, so a (patient, user) pair
// is walked once per pass however the rows are cut.
// Make a pass per call and drop it after: rows appended since do not
// belong to it.
func (a *Auditor) NewPass(ctx context.Context, parallelism int) (*Pass, error) {
	ps, err := a.prepare(ctx, parallelism)
	if err != nil {
		return nil, err
	}
	ps.memo = a.ev.NewInstanceMemo()
	return ps, nil
}

// checkRange validates the audited-row range [lo, hi) against n rows.
func checkRange(lo, hi, n int) error {
	if lo < 0 || hi < lo || hi > n {
		return fmt.Errorf("core: rows [%d, %d) out of range [0, %d)", lo, hi, n)
	}
	return nil
}

// explainRowWith builds the report for one log row using the given cursor
// and the call's pass. It is the single code path behind ExplainRow,
// PatientReport and the batch workers of StreamReports, which is what
// guarantees they return byte-for-byte identical reports, and the string
// sink the NDJSON sink (appendRowNDJSON) is pinned to. Templates render in
// byLength order, so the explanations come out ranked without a per-row
// sort.
func (a *Auditor) explainRowWith(ev *query.Evaluator, ps *Pass, row, maxPerTemplate int) AccessReport {
	log := ev.Log()
	if maxPerTemplate <= 0 {
		maxPerTemplate = defaultPerTemplate
	}
	rep := AccessReport{
		Lid:     log.Int(row, ps.cols.Lid),
		Date:    log.Cell(row, ps.cols.Date),
		User:    log.Cell(row, ps.cols.User),
		Patient: log.Cell(row, ps.cols.Patient),
	}
	rep.UserName = a.namer.UserName(rep.User)
	explaining := 0
	for _, m := range ps.masks {
		if m.Get(row) {
			explaining++
		}
	}
	if explaining > 0 {
		rep.Explanations = make([]Explanation, 0, explaining*maxPerTemplate)
	}
	for _, i := range a.byLength {
		if !ps.masks[i].Get(row) {
			continue
		}
		t := a.templates[i]
		for _, text := range ps.progs[i].Render(ev, row, maxPerTemplate) {
			rep.Explanations = append(rep.Explanations, Explanation{
				Template: t.Name(), Length: t.Length(), Text: text,
			})
		}
	}
	return rep
}

// PatientReport is the user-centric auditing view: every access to one
// patient's record, each with its explanations. The patient's rows are
// found by one scan of the log's Patient column, with no index built —
// the lookup a patient-facing portal serves per request, which would
// otherwise pay to index every patient for one — and a row renders only
// the templates its masks explain, so rendering builds no index either. A
// report costs O(log rows) for the scan plus rendering.
// Reports are in ascending row order; a patient with no accesses gets an
// empty slice without any mask work.
func (a *Auditor) PatientReport(patient relation.Value, maxPerTemplate int) ([]AccessReport, error) {
	return a.PatientReportRange(patient, maxPerTemplate, 0, a.ev.Log().NumRows())
}

// PatientReportRange is PatientReport over the audited rows [lo, hi).
func (a *Auditor) PatientReportRange(patient relation.Value, maxPerTemplate, lo, hi int) ([]AccessReport, error) {
	if err := checkRange(lo, hi, a.ev.Log().NumRows()); err != nil {
		return nil, err
	}
	log := a.ev.Log()
	pc, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	all := log.Find(pc, patient)
	rows := all[sort.SearchInts(all, lo):sort.SearchInts(all, hi)]
	out := make([]AccessReport, 0, len(rows))
	if len(rows) == 0 {
		return out, nil
	}
	ps, err := a.prepare(context.TODO(), 0)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		out = append(out, a.explainRowWith(a.ev, ps, r, maxPerTemplate))
	}
	return out, nil
}

// PlanCacheStats returns the query engine's plan-cache counters with the
// auditor's template-mask cache outcomes filled in: MaskHits (masks served
// as-is), MaskRecomputes (masks built or rebuilt from row 0), and
// MaskExtensions (masks extended over appended log rows). One struct so
// single-engine and federated displays aggregate the same way.
func (a *Auditor) PlanCacheStats() query.PlanCacheStats {
	st := a.ev.PlanCacheStats()
	st.MaskHits = a.maskHits.Value()
	st.MaskRecomputes = a.maskRecomputes.Value()
	st.MaskExtensions = a.maskExtensions.Value()
	return st
}

// Summary returns a one-paragraph description of the auditor state for CLI
// display.
func (a *Auditor) Summary() string {
	log := a.ev.Log()
	return fmt.Sprintf("auditor: %d log rows, %d distinct patients, %d distinct users, %d user-patient pairs, %d templates",
		log.NumRows(),
		log.NumDistinct(pathmodel.LogPatientColumn),
		log.NumDistinct(pathmodel.LogUserColumn),
		accesslog.UserPatientPairs(log),
		len(a.templates))
}
