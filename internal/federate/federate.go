// Package federate audits many access logs as one. A real hospital system
// is a set of departmental or regional installations, each with its own
// access log and metadata tables; the compliance office still needs one
// answer — every access to a patient's record, explained, in one
// chronology. A Federation is a sequence of shards, each a run [lo, hi) of
// one core.Auditor's audited rows in log order, with core.Auditor's audit
// surface over the logical merged log: the NDJSON stream runs the shards
// one after another as range streams (byte-identical to one engine over
// the merged log), the aggregates sum exact per-shard row counts, and
// MineTemplates mines the merged log. Every shard call runs behind the
// shard's fault seams and a retry budget (policy.go), and a retried stream
// resumes exactly where it stopped. A shard that stays down fails the whole
// call: the answer is over every shard or there is none. Everything that
// computes masks takes a context and returns an error, so a cancelled audit
// or a failed shard never reads as "nothing unexplained".
//
// Two constructors cover the two deployment shapes. Split cuts one
// database's log into K row runs of ONE engine: a fault-isolated partition
// of that engine's stream, whose shards share its masks, compiled plans and
// per-call instance memo. Join is the federation proper: separately loaded
// databases, each with its own metadata and its own engine, under one merged
// chronology. Each Join engine audits its own deployment's log
// (core.WithAuditedLog) while its database carries the merged log as
// history, so repeat-access templates, Log self-joins and the collaborative
// groups see the same evidence a single merged engine would.
package federate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/accesslog"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// shard is one member of a federation: the audited rows [lo, hi) of its
// engine, in that engine's own row numbering. Row r of the run is merged-log
// row off+r, and shards follow one another in log order. Every Split shard
// points at the one engine over the shared database (off 0); a Join shard's
// engine audits its own deployment's log (lo 0, hi its length).
type shard struct {
	name        string
	auditor     *core.Auditor
	lo, hi, off int
	// health is the shard's HealthState (see policy.go), advisory
	// bookkeeping maintained by callShard.
	health atomic.Int32
	// sites holds the shard's fault-injection site names, one per seam,
	// precomputed by initResilience so the audit hot paths never
	// concatenate strings.
	sites [numSeams]string
}

// rows is the number of merged-log rows the shard audits.
func (sh *shard) rows() int { return sh.hi - sh.lo }

// Federation audits a sequence of shards as one logical log. Construct it
// with Split or Join, register templates with AddTemplates, then use the
// audit surface. The concurrency contract matches core.Auditor:
// configuration requires exclusive access, after which the batch surface
// (StreamNDJSON, Unexplained, ExplainedFraction) may be used;
// the point members (PatientReport, MineTemplates) must not run
// concurrently with anything else on the same Federation.
type Federation struct {
	graph  *schemagraph.Graph
	shards []*shard
	// engines lists the distinct auditors behind the shards in shard order:
	// the one engine of a Split, or one per shard for a Join.
	engines []*core.Auditor
	// merged is the logical log in global order: Split's source log, or the
	// concatenation Join builds and every Join database carries as its Log
	// table so history-sensitive templates see the full chronology.
	merged *relation.Table
	// split is set for Split federations, whose merged log is the caller's
	// and may grow: Refresh appends new rows to the last shard. A Join's
	// merged log is a constructed concatenation with no append path.
	split bool
	// hier is the collaborative-group hierarchy trained on the merged log,
	// or nil when the federation reused an existing Groups table (Split over
	// an already-configured database, or a Join whose shards all carry an
	// identical persisted copy).
	hier *groups.Hierarchy
	// retries is every shard call's retry budget beyond its first attempt
	// (SetRetries).
	retries int
}

// config collects construction options.
type config struct {
	namer explain.Namer
	names []string
}

// Option configures Split and Join.
type Option func(*config)

// WithNamer installs the display-name resolver handed to every shard
// engine. For the federated stream to be byte-identical to a single
// engine's, both must use the same namer.
func WithNamer(n explain.Namer) Option {
	return func(c *config) { c.namer = n }
}

// WithShardNames overrides the default shard0..shardN-1 display names (for
// example, the source directory names of a multi-directory load).
func WithShardNames(names ...string) Option {
	return func(c *config) { c.names = append([]string(nil), names...) }
}

func checkLog(t *relation.Table, who string) error {
	if t == nil {
		return fmt.Errorf("federate: %s has no %s table", who, pathmodel.LogTable)
	}
	for _, col := range pathmodel.RequiredLogColumns() {
		if !t.HasColumn(col) {
			return fmt.Errorf("federate: %s log lacks required column %q", who, col)
		}
	}
	return nil
}

func newConfig(opts []Option) *config {
	c := &config{namer: explain.NullNamer{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

func (c *config) shardName(i int) string {
	if i < len(c.names) && c.names[i] != "" {
		return c.names[i]
	}
	return fmt.Sprintf("shard%d", i)
}

// TimeRanges returns Split's default cut points: k row runs whose sizes are
// the populations of k equal-width date buckets spanning the log's [min,
// max] date range — the "one shard per period" layout a regional deployment
// rotates through. Over a chronological log every run is exactly its
// bucket's rows. A log not sorted by date keeps the run sizes, so its shards
// stay balanced like the buckets; the audit surface is partition-invariant,
// so any cuts audit identically.
func TimeRanges(log *relation.Table, k int) []int {
	if k < 2 {
		return nil
	}
	n := log.NumRows()
	counts := make([]int, k)
	di, ok := log.ColumnIndex(pathmodel.LogDateColumn)
	if !ok || n == 0 {
		counts[0] = n
	} else {
		dmin, dmax := log.Int(0, di), log.Int(0, di)
		for r := 1; r < n; r++ {
			if d := log.Int(r, di); d < dmin {
				dmin = d
			} else if d > dmax {
				dmax = d
			}
		}
		// Bucket proportionally in float space: date ranges as wide as the
		// whole int64 domain (epoch-nanosecond logs) would overflow an
		// integer (d-dmin)*k product, and bucket boundaries only need to be
		// deterministic, not exact. The uint64 subtraction yields the true
		// offset for any int64 pair with dmax >= dmin.
		spanF := float64(uint64(dmax)-uint64(dmin)) + 1
		for r := 0; r < n; r++ {
			off := uint64(log.Int(r, di)) - uint64(dmin)
			counts[max(0, min(k-1, int(float64(off)/spanF*float64(k))))]++
		}
	}
	cuts := make([]int, k-1)
	for i, at := 0, 0; i < k-1; i++ {
		at += counts[i]
		cuts[i] = at
	}
	return cuts
}

// Split cuts db's access log into k runs of consecutive rows at the k-1
// ascending cut points (shard i audits rows [cuts[i-1], cuts[i]), the first
// from row 0 and the last to the end; nil means TimeRanges) of one engine
// over db. The shards are fault-isolated ranges of that engine's audit —
// each with its own seams, retries and health state — while
// masks, compiled plans and a stream's instance memo are built once, and
// every query resolves against db's full log, so the federated audit is
// identical to a single-engine audit of db. A Groups table is trained on the
// full log and installed if db does not already have one (an existing table,
// such as one a prior core.Auditor.BuildGroups installed, is reused as-is).
func Split(db *relation.Database, graph *schemagraph.Graph, k int, cuts []int, opts ...Option) (*Federation, error) {
	if k < 1 {
		return nil, fmt.Errorf("federate: Split needs at least 1 shard, got %d", k)
	}
	log := db.Table(pathmodel.LogTable)
	if err := checkLog(log, "database"); err != nil {
		return nil, err
	}
	n := log.NumRows()
	if cuts == nil {
		cuts = TimeRanges(log, k)
	}
	if len(cuts) != k-1 {
		return nil, fmt.Errorf("federate: Split into %d shards needs %d cut points, got %d", k, k-1, len(cuts))
	}
	bounds := append(append([]int{0}, cuts...), n)
	for i, c := range cuts {
		if c < bounds[i] || c > n {
			return nil, fmt.Errorf("federate: cut point %d is %d, want ascending within [%d, %d]", i, c, bounds[i], n)
		}
	}

	cfg := newConfig(opts)
	f := &Federation{graph: graph, merged: log, split: true}
	if !db.HasTable(core.DefaultGroupsTable) {
		f.hier = buildGroups(log)
		db.AddTable(f.hier.Table(core.DefaultGroupsTable))
	}
	engine := core.NewAuditor(db, graph, core.WithNamer(cfg.namer))
	f.engines = []*core.Auditor{engine}
	for s := 0; s < k; s++ {
		f.shards = append(f.shards, &shard{name: cfg.shardName(s), auditor: engine, lo: bounds[s], hi: bounds[s+1]})
	}
	f.initResilience()
	return f, nil
}

// buildGroups trains the hierarchy through the same groups.Train pipeline
// core.Auditor.BuildGroups uses, at the same default depth (and the call
// sites install it under core.DefaultGroupsTable), so a federation-built
// Groups table is identical to a single engine's.
func buildGroups(log *relation.Table) *groups.Hierarchy {
	return groups.Train(log, core.DefaultGroupsMaxDepth)
}

// sharedGroupsTable reports whether every database already carries a Groups
// table and all the copies have identical content — the precondition for
// Join's warm start. Each shard then keeps its own loaded table (no schema
// mutation), which is exactly the state a retraining Join would have
// produced, because training is a pure function of the merged log.
func sharedGroupsTable(dbs []*relation.Database) bool {
	first := dbs[0].Table(core.DefaultGroupsTable)
	if first == nil {
		return false
	}
	for _, db := range dbs[1:] {
		if !sameTable(first, db.Table(core.DefaultGroupsTable)) {
			return false
		}
	}
	return true
}

// sameTable reports whether two tables have identical columns and rows.
func sameTable(a, b *relation.Table) bool {
	if b == nil || a.NumRows() != b.NumRows() || !slices.Equal(a.Columns(), b.Columns()) {
		return false
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := range a.Columns() {
			if a.Cell(r, c) != b.Cell(r, c) {
				return false
			}
		}
	}
	return true
}

// Join federates separately constructed databases — one per deployment, each
// with its own log and metadata tables — under a single merged chronology:
// the shard logs are concatenated in input order into the logical log, which
// replaces every shard database's Log table (so repeat-access history and
// Log self-joins span deployments), while each shard's accesses are still
// explained against that shard's own metadata. Group membership — like
// history — is a property of the whole federation: when every input database
// already carries an identical Groups table (a persisted copy of a previous
// Join's merged-log training, see store.SaveTable), that table is reused
// as-is and no retraining happens — the warm start that makes reopening a
// shard-store federation cheap; any shard missing the table, or carrying a
// divergent copy, forces the hierarchy to be retrained on the merged log and
// installed into every shard, replacing whatever was loaded. Reuse trusts
// the persisted table: a caller that appends to the shard logs after
// persisting must drop the stale copies to retrain. All shard logs must
// share an identical column layout.
func Join(dbs []*relation.Database, graph *schemagraph.Graph, opts ...Option) (*Federation, error) {
	if len(dbs) == 0 {
		return nil, errors.New("federate: Join needs at least one database")
	}
	cfg := newConfig(opts)
	logs := make([]*relation.Table, len(dbs))
	for i, db := range dbs {
		logs[i] = db.Table(pathmodel.LogTable)
		if err := checkLog(logs[i], cfg.shardName(i)); err != nil {
			return nil, err
		}
	}
	merged, err := relation.Concat(pathmodel.LogTable, logs...)
	if err != nil {
		return nil, err
	}

	f := &Federation{graph: graph, merged: merged}
	var groupsTable *relation.Table
	if !sharedGroupsTable(dbs) {
		f.hier = buildGroups(merged)
		groupsTable = f.hier.Table(core.DefaultGroupsTable)
	}
	offset := 0
	for i, db := range dbs {
		shardDB := accesslog.WithLog(db, merged)
		if groupsTable != nil {
			shardDB.AddTable(groupsTable)
		}
		engine := core.NewAuditor(shardDB, graph, core.WithAuditedLog(logs[i]), core.WithNamer(cfg.namer))
		f.engines = append(f.engines, engine)
		f.shards = append(f.shards, &shard{name: cfg.shardName(i), auditor: engine, hi: logs[i].NumRows(), off: offset})
		offset += logs[i].NumRows()
	}
	f.initResilience()
	return f, nil
}

// ErrUnsupported marks an operation the federation's construction cannot
// perform, such as Refresh on a Join federation. Callers test for it with
// errors.Is.
var ErrUnsupported = errors.New("federate: unsupported operation")

// unsupportedError is an ErrUnsupported with an operation-specific message.
type unsupportedError string

func (e unsupportedError) Error() string { return string(e) }
func (e unsupportedError) Unwrap() error { return ErrUnsupported }

// Refresh folds rows appended to the merged log since construction (or the
// previous Refresh) into the federation: the new rows join the last shard's
// run, and every engine then refreshes its cached template masks
// incrementally (core.Auditor.Refresh: append-monotone masks evaluate only
// the appended suffix, and the others are rebuilt). It returns the number
// of rows folded in. Appended rows must follow the chronological contract
// of core.Auditor.Refresh: strictly later (Date, Lid) than every
// pre-existing row, which is why they belong to the last run. Refresh
// requires the same exclusive access as the other configuration methods (it
// grows the last shard's run).
//
// Only Split federations support Refresh: a Join's merged log is a
// concatenation the federation itself built, so there is no external
// append path to observe — rebuild the Join with the grown shard logs
// instead. Refreshing a grown Join returns an error matching
// ErrUnsupported.
func (f *Federation) Refresh(ctx context.Context, parallelism int) (int, error) {
	appended := f.merged.NumRows() - f.distributed()
	if appended > 0 && !f.split {
		return 0, unsupportedError("federate: Refresh requires a Split federation (Join merged logs have no append path)")
	}
	f.shards[len(f.shards)-1].hi += appended
	for _, a := range f.engines {
		if err := a.Refresh(ctx, parallelism); err != nil {
			return appended, err
		}
	}
	return appended, nil
}

// distributed is the number of merged-log rows the shards audit: Refresh's
// append watermark.
func (f *Federation) distributed() int {
	last := f.shards[len(f.shards)-1]
	return last.off + last.hi
}

// NumShards returns the number of shards.
func (f *Federation) NumShards() int { return len(f.shards) }

// Log returns the logical merged log in global order: the table whose row
// indexes Unexplained speaks of.
func (f *Federation) Log() *relation.Table { return f.merged }

// Hierarchy returns the collaborative-group hierarchy trained on the merged
// log, or nil when the federation reused an existing Groups table.
func (f *Federation) Hierarchy() *groups.Hierarchy { return f.hier }

// AddTemplates registers explanation templates on every engine.
// Registration order is preserved engine-to-engine, which the report
// differential depends on.
func (f *Federation) AddTemplates(ts ...explain.Template) {
	for _, a := range f.engines {
		a.AddTemplates(ts...)
	}
}

// Templates returns the registered templates (identical on every engine).
func (f *Federation) Templates() []explain.Template {
	return f.engines[0].Templates()
}

// StreamNDJSON builds the NDJSON line of every row of the merged log and
// hands the lines to emit a chunk at a time, in global log order (buf holds
// rows complete lines, explained of which are explained accesses) — exactly
// the bytes core.Auditor.StreamNDJSON writes over the merged log (the
// federated differential tests pin the two together). The shards stream one
// after another, each through core.Auditor.StreamNDJSONRange with the whole
// worker budget, so encoding runs in the engine's render workers, each
// encoded core chunk goes to emit as it is, and peak buffering stays a few
// chunks per worker regardless of log size. A shard renders from the call's
// pass over its engine (core.Auditor.NewPass): made by the first attempt
// that needs it, so a mask fault strikes that shard's stream seam and
// retries, then shared by every later shard of the same engine, so a Split
// call builds masks, compiles templates and walks each instance once.
//
// emit runs on the calling goroutine, never concurrently with itself, and
// must not retain buf after it returns. If emit returns an error the stream
// aborts with it; if ctx is cancelled mid-run the shard pipeline stops
// promptly and StreamNDJSON returns ctx.Err().
//
// Each shard's stream runs under the retry budget (callShard): retries with
// backoff on retryable failures, and panic containment. The shard's row
// seam fires once per row of a chunk before the chunk is handed on, and a
// retried shard resumes at its first row not handed on — always a chunk
// boundary, since only whole chunks are — so transient faults never
// duplicate or drop a line. A shard whose budget is exhausted aborts the
// stream with an error matching ErrShardDown. On every error emit has seen
// a clean prefix of whole chunks of the merged stream.
func (f *Federation) StreamNDJSON(ctx context.Context, parallelism int, emit func(buf []byte, rows, explained int) error) error {
	passes := make(map[*core.Auditor]*core.Pass, len(f.engines))
	handed := make(map[*shard]int, len(f.shards)) // rows of each shard's run emit has seen
	return f.eachShard(ctx, seamStream, func(sh *shard) error {
		ps := passes[sh.auditor]
		if ps == nil {
			var err error
			if ps, err = sh.auditor.NewPass(ctx, parallelism); err != nil {
				return err
			}
			passes[sh.auditor] = ps
		}
		return sh.auditor.StreamNDJSONRange(ctx, parallelism, ps, sh.lo+handed[sh], sh.hi, func(buf []byte, rows, explained int) error {
			for range rows {
				if err := sh.inject(ctx, seamRow); err != nil {
					return err
				}
			}
			if err := emit(buf, rows, explained); err != nil {
				return &downstreamError{err: err}
			}
			handed[sh] += rows
			return nil
		})
	})
}

// Unexplained returns the merged-log row indexes no registered template
// explains, ascending — each shard's unexplained rows, concatenated in
// shard order. Any shard failure aborts the call.
func (f *Federation) Unexplained(ctx context.Context, parallelism int) ([]int, error) {
	var out []int
	err := f.eachUnexplained(ctx, parallelism, func(sh *shard, rows []int) {
		for _, r := range rows {
			out = append(out, sh.off+r)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExplainedFraction returns the fraction of merged-log rows explained by the
// registered templates, aggregated from exact per-shard explained counts
// — bit-identical to the single-engine fraction, because both divide the
// same integers. Any shard failure aborts the call. An empty federation
// yields 0, never NaN.
func (f *Federation) ExplainedFraction(ctx context.Context, parallelism int) (float64, error) {
	total, unexplained := 0, 0
	err := f.eachUnexplained(ctx, parallelism, func(sh *shard, rows []int) {
		total += sh.rows()
		unexplained += len(rows)
	})
	if err != nil || total == 0 {
		return 0, err
	}
	return float64(total-unexplained) / float64(total), nil
}

// eachUnexplained hands add each shard's unexplained rows, in its engine's
// numbering, shard by shard under the unexplained seam (eachShard).
func (f *Federation) eachUnexplained(ctx context.Context, parallelism int, add func(sh *shard, rows []int)) error {
	return f.eachShard(ctx, seamUnexplained, func(sh *shard) error {
		rows, err := sh.auditor.UnexplainedRange(ctx, parallelism, sh.lo, sh.hi)
		if err == nil {
			add(sh, rows)
		}
		return err
	})
}

// PatientReport is the federated user-centric view: every access to one
// patient's record across all shards, in global log order (the shard reports
// concatenated in shard order), each with its explanations. Each shard finds
// the patient's rows by scanning its engine's Patient column, with no index
// built, and renders them. Shard calls run under the retry budget, and any
// shard failure aborts the call.
func (f *Federation) PatientReport(patient relation.Value, maxPerTemplate int) ([]core.AccessReport, error) {
	out := []core.AccessReport{}
	err := f.eachShard(context.TODO(), seamReport, func(sh *shard) error {
		reps, err := sh.auditor.PatientReportRange(patient, maxPerTemplate, sh.lo, sh.hi)
		if err != nil {
			return err
		}
		out = append(out, reps...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MineTemplates runs the named mining algorithm over the federation as if
// the shards were one merged log. A Split is one engine, so this is that
// engine's own miner, and the mined templates and every statistics counter
// are a single-engine run's. A Join mines through a cross-shard support
// oracle (see joinOracle): candidate generation and admission run once,
// every candidate's exact support is evaluated per shard and summed, and
// optimizer estimates come from the merged log over shard 0's metadata — so
// the skip decisions, and therefore the result, replay a single-engine run
// exactly when every deployment carries the schema-graph tables with the
// same content. Mining requires every shard to provide the tables the
// schema graph references, the same requirement a single engine has; a
// Join of genuinely divergent metadata still mines (supports are exact per
// shard), but its estimates are only as representative as shard 0's
// tables, and there is no single merged database for the result to be
// compared against.
func (f *Federation) MineTemplates(algo string, opt mine.Options) (mine.Result, error) {
	if f.split {
		return f.engines[0].MineTemplates(algo, opt)
	}
	return mine.RunWith(algo, f.joinOracle(), f.graph, opt)
}

// Summary returns a one-paragraph description of the federation for CLI
// display.
func (f *Federation) Summary() string {
	return fmt.Sprintf("federation: %d shards, %d merged log rows, %d distinct patients, %d distinct users, %d templates",
		len(f.shards), f.merged.NumRows(),
		f.merged.NumDistinct(pathmodel.LogPatientColumn),
		f.merged.NumDistinct(pathmodel.LogUserColumn),
		len(f.Templates()))
}

// ShardInfo is one shard's display state: its name, audited row count, and
// — for a shard with an engine of its own (a Join) — that engine's
// plan-cache plus mask-cache counters. A Split shard's Stats is nil: its
// engine is every shard's, and PlanCacheStats reports it once.
type ShardInfo struct {
	Name  string
	Rows  int
	Stats *query.PlanCacheStats
}

// ShardInfos returns per-shard display state in shard order.
func (f *Federation) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(f.shards))
	for i, sh := range f.shards {
		out[i] = ShardInfo{Name: sh.name, Rows: sh.rows()}
		if !f.split {
			st := sh.auditor.PlanCacheStats()
			out[i].Stats = &st
		}
	}
	return out
}

// PlanCacheStats aggregates the plan-cache and template-mask counters of
// every engine, each counted once. See query.PlanCacheStats.Add.
func (f *Federation) PlanCacheStats() query.PlanCacheStats {
	agg := f.engines[0].PlanCacheStats()
	for _, a := range f.engines[1:] {
		agg = agg.Add(a.PlanCacheStats())
	}
	return agg
}

// MetricsSnapshot returns the federation-wide metrics view: every engine's
// registry (query-plan and mask-cache metrics), each counted once, merged
// with the process-wide obs.Default registry (worker-pool, resilience, and
// store metrics, which have no engine to belong to). Counters and histogram
// buckets sum across engines.
func (f *Federation) MetricsSnapshot() map[string]obs.Metric {
	snaps := make([]map[string]obs.Metric, 0, len(f.engines)+1)
	for _, a := range f.engines {
		snaps = append(snaps, a.Evaluator().Metrics().Snapshot())
	}
	snaps = append(snaps, obs.Default.Snapshot())
	return obs.Merge(snaps...)
}
