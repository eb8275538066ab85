// Command ebaudit is the interactive face of the explanation-based auditing
// library: it generates (or loads) the synthetic hospital, then answers the
// three questions the paper poses — what happened to a patient's record and
// why (the patient portal), which templates explain the log (mining), and
// which accesses nothing explains (misuse triage).
//
// Usage:
//
//	ebaudit [flags] summary
//	ebaudit [flags] patient -id N        # portal report for one patient
//	ebaudit [flags] audit [-n N] [-v] [-stream] [-shards K]
//	                [-follow [-poll D] [-follow-rows N]]
//	                [-trace FILE] [-explain]
//	                                     # batch-audit every access in parallel;
//	                                     # -stream emits NDJSON reports in log
//	                                     # order with bounded memory; -shards K
//	                                     # cuts the log into K row ranges of one
//	                                     # engine (identical output); -follow
//	                                     # polls -data for appended log rows (at
//	                                     # once when Log.csv is written, on Linux;
//	                                     # else every -poll) and emits only the
//	                                     # new reports, extending cached template
//	                                     # masks incrementally instead of
//	                                     # recomputing them
//	ebaudit [flags] mine [-algo name]    # mine templates for review
//	ebaudit [flags] unexplained [-n N]   # misuse-detection shortlist
//	ebaudit [flags] groups [-depth D]    # collaborative-group composition
//	ebaudit [flags] templates            # print the hand-crafted catalog
//	ebaudit [flags] export -dir DIR [-format csv|store]
//	                                     # dump every table as typed CSV, or
//	                                     # as a binary segment store
//
// The -j flag sets the worker count of the batch auditing engine and the
// miner's candidate-evaluation stage (default GOMAXPROCS; values below 1 are
// rejected); summary, audit, mine, and unexplained all run on it. A
// federated audit streams its shards one after another, each with the whole
// budget. audit -v additionally reports the query engine's plan-cache and
// mask-cache counters (per shard, when federated) and dumps the merged
// metrics registry on stderr.
//
// Observability: the top-level -metrics-addr flag serves the live registry
// and profiling endpoints (/metrics in Prometheus text format, /debug/vars
// as JSON, /debug/pprof) for the life of the process. audit -trace FILE
// writes the run's spans — mask builds, batch scheduling — to FILE as
// NDJSON, one span per line, through a bounded ring that drops (and counts)
// rather than block. audit -explain enables per-op execution statistics and
// prints, after the audit, each path template's EXPLAIN ANALYZE-style per-op
// counters (rows in/out, postings consumed, memo hits); stream and follow
// modes keep stdout pure NDJSON, so the report lands on stderr there.
//
// The -data flag loads the database from a directory of typed CSVs (the
// format `ebaudit export` writes) instead of generating one; malformed input
// — a missing Log table, a missing required column, a bad CSV row — is
// reported as a proper error with nonzero exit status, never a panic. A
// comma-separated list (-data dirA,dirB,...) loads each directory as one
// shard of a federation: the shard logs are merged into one chronology
// (repeat-access history and collaborative groups span shards) while each
// shard's accesses are explained against its own metadata, and every
// subcommand except export answers over the logical merged log.
//
// The -store flag puts a binary segment store (internal/store) behind the
// database: a missing store is created from -data (or the generated
// dataset), an existing one is opened directly — no CSV reparse — with any
// torn segment tail from a crash truncated away. audit saves a warm-start
// snapshot (template masks and their watermarks) into the
// store, and audit -follow additionally persists every appended log batch
// as a durable segment record, so a restarted session resumes warm exactly
// where the interrupted one left off; a snapshot that no longer matches
// the database is discarded, never partially trusted. A comma-separated
// -store list federates one store per shard, pairing with -data by
// position when migration is needed.
//
// Follow mode: audit -follow waits between polls of -data on an inotify
// watch of the directory (Linux), so a write to Log.csv is polled at once
// and -poll only bounds the wait; elsewhere it polls every -poll.
//
// Resilience: the top-level -faults flag arms deterministic chaos
// injectors (comma-separated SITE:KIND[:COUNT[:AFTER]] entries; kinds
// error, flaky, delay=DUR, panic) at the engine's named seams before
// anything runs, so store opens and shard calls can be failed on a precise,
// replayable schedule. Federated audits take -retries N (per-shard-call
// retry budget with capped-jittered-exponential backoff); a shard that
// stays down fails the audit, whose output up to then is a clean prefix of
// the complete one. audit -follow -grace D bounds how long transient -data
// poll failures (a file renamed away mid-rotation) are retried with backoff
// before the session ends with the underlying error.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/federate"
	"repro/internal/groups"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/pathmodel"
	"repro/internal/relation"
	"repro/internal/schemagraph"
	"repro/internal/store"
)

func main() {
	code := 0
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintf(os.Stderr, "ebaudit: %v\n", err)
			code = 1
		} else {
			code = 2
		}
	}
	os.Exit(code)
}

// errUsage marks command-line misuse (exit status 2, message already
// printed).
var errUsage = errors.New("usage error")

// run is the testable CLI entry point: it parses argv, checks the
// subcommand, builds the app (generated or loaded dataset), and dispatches
// the subcommand. Library
// panics triggered by malformed loaded data are recovered at this boundary
// and surfaced as ordinary errors.
func run(argv []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("ebaudit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "tiny", "dataset scale: tiny, small, or medium")
	seed := fs.Int64("seed", 1, "generator seed")
	parallelism := fs.Int("j", runtime.GOMAXPROCS(0), "batch auditing workers")
	dataDir := fs.String("data", "", "load tables from a directory of typed CSVs (see 'ebaudit export') instead of generating; a comma-separated list federates one shard per directory")
	storeDir := fs.String("store", "", "open (or create from -data / the generated dataset) a binary segment store; restarts resume warm from its snapshot; a comma-separated list federates one shard per store")
	metricsAddr := fs.String("metrics-addr", "", "serve live observability on this address for the life of the process: /metrics (Prometheus text), /debug/vars (JSON), /debug/pprof/*")
	faultSpec := fs.String("faults", "", "arm deterministic fault injectors: comma-separated SITE:KIND[:COUNT[:AFTER]] entries with KIND error|flaky|delay=DUR|panic; SITE may end in * (chaos testing; see internal/fault)")
	if err := fs.Parse(argv); err != nil {
		return errUsage
	}
	if *metricsAddr != "" {
		// Enable before the app is built so plan-compile timings and mask
		// build histograms cover the whole run the endpoint reports on.
		obs.SetEnabled(true)
	}
	sub, ok := subcommands[fs.Arg(0)]
	if !ok {
		// Before anything is loaded or generated: a misspelt subcommand is a
		// usage error whatever the other flags say.
		usage(stderr)
		return errUsage
	}
	if *parallelism < 1 {
		return fmt.Errorf("-j must be at least 1, got %d", *parallelism)
	}
	// Arm injectors before the app is built so store/open and load seams are
	// already covered; the registry is process-wide, like obs.Default.
	if err := installFaults(*faultSpec, *seed); err != nil {
		return err
	}

	splitDirs := func(flagName, v string) ([]string, error) {
		if v == "" {
			return nil, nil
		}
		dirs := strings.Split(v, ",")
		for i, d := range dirs {
			d = strings.TrimSpace(d)
			if d == "" {
				return nil, fmt.Errorf("%s list %q contains an empty entry", flagName, v)
			}
			dirs[i] = d
		}
		return dirs, nil
	}
	dataDirs, err := splitDirs("-data", *dataDir)
	if err != nil {
		return err
	}
	storeDirs, err := splitDirs("-store", *storeDir)
	if err != nil {
		return err
	}
	srcs, err := resolveSources(dataDirs, storeDirs)
	if err != nil {
		return err
	}

	// gen generates the dataset, validating -scale lazily so the flag is
	// only checked when generation actually happens.
	gen := func() (*ehr.Dataset, error) {
		config, ok := map[string]func() ehr.Config{"tiny": ehr.Tiny, "small": ehr.Small, "medium": ehr.Medium}[*scale]
		if !ok {
			fmt.Fprintf(stderr, "ebaudit: unknown scale %q\n", *scale)
			return nil, errUsage
		}
		cfg := config()
		cfg.Seed = *seed
		return ehr.Generate(cfg), nil
	}

	if len(dataDirs) > 0 || len(storeDirs) > 0 {
		// Malformed loaded datasets can trip invariants deep inside the
		// relation/query layers (they panic on schema bugs, which hand-built
		// data can reproduce); convert those into CLI errors instead of
		// stack traces. Generated datasets get no such backstop: a panic
		// there is a programming bug and should crash with a traceback.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("invalid dataset: %v", r)
			}
		}()
	}
	a, err := openApp(srcs, gen, *parallelism, stderr)
	if err != nil {
		return err
	}
	a.stdout, a.stderr = stdout, stderr
	if *metricsAddr != "" {
		bound, err := a.serveMetrics(*metricsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "ebaudit: serving /metrics, /debug/vars, /debug/pprof on %s\n", bound)
	}

	return sub(a, fs.Args()[1:])
}

// subcommands dispatches each subcommand to the app method that runs it.
var subcommands = map[string]func(a *app, args []string) error{
	"summary":     func(a *app, _ []string) error { return a.summary() },
	"patient":     (*app).patient,
	"audit":       (*app).audit,
	"mine":        (*app).mine,
	"unexplained": (*app).unexplained,
	"groups":      (*app).groups,
	"templates":   func(a *app, _ []string) error { return a.templates() },
	"export":      (*app).export,
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: ebaudit [-scale S] [-seed N] [-j W] [-data DIR[,DIR...]] [-store DIR[,DIR...]] [-metrics-addr ADDR] [-faults SPEC] <summary|patient|audit|mine|unexplained|groups|templates|export> [args]")
	fmt.Fprintln(w, "  audit flags: -n N (unexplained sample size), -v (engine internals + metrics dump), -stream (NDJSON reports in log order, bounded memory), -shards K (federated shard-parallel audit), -follow (poll -data for appended rows, incremental refresh; with -poll D, -follow-rows N, -grace D), -trace FILE (NDJSON observability spans), -explain (per-template plan + per-op execution report)")
	fmt.Fprintln(w, "  audit resilience (federated): -retries N (per-shard-call retry budget); a shard that stays down fails the audit")
	fmt.Fprintln(w, "  -faults arms deterministic chaos injectors: SITE:KIND[:COUNT[:AFTER]],... with KIND error|flaky|delay=DUR|panic")
	fmt.Fprintln(w, "  export flags: -dir DIR, -format csv|store")
	fmt.Fprintln(w, "  -metrics-addr serves /metrics (Prometheus), /debug/vars (JSON), /debug/pprof for the life of the process")
}

// engine is the audit surface every subcommand is written against: one
// core.Auditor, or a federate.Federation — K row ranges of one engine
// (-shards K), or one engine per -data/-store shard, over the logical merged
// log. Both answer identically for the same log, so only genuinely
// topology-specific code asks which one it holds: -retries and per-shard
// stats (federated only); -follow, -explain,
// export and the warm-state save (single engine only).
type engine interface {
	Summary() string
	Templates() []explain.Template
	// Log is the audited log, whose row indexes Unexplained returns.
	Log() *relation.Table
	ExplainedFraction(ctx context.Context, parallelism int) (float64, error)
	Unexplained(ctx context.Context, parallelism int) ([]int, error)
	// StreamNDJSON is the one stream: audit -stream's NDJSON lines.
	StreamNDJSON(ctx context.Context, parallelism int, emit func(buf []byte, rows, explained int) error) error
	PatientReport(patient relation.Value, maxPerTemplate int) ([]core.AccessReport, error)
	MineTemplates(algo string, opt mine.Options) (mine.Result, error)
	MetricsSnapshot() map[string]obs.Metric
}

var (
	_ engine = (*core.Auditor)(nil)
	_ engine = (*federate.Federation)(nil)
)

// app holds the prepared engine and what the CLI knows about its source.
type app struct {
	eng engine
	// auditor is eng when it is a single engine, and nil for a federation
	// of -data/-store shards.
	auditor *core.Auditor
	// ds is the generated dataset: nil for a loaded database and for any
	// store, which holds no ground truth, so -store always renders raw ids.
	ds   *ehr.Dataset
	db   *relation.Database // the single engine's database
	hier *groups.Hierarchy
	// dataDir is the single -data directory the database was loaded from
	// ("" for generated datasets and multi-directory federations); audit
	// -follow polls it for appended log rows.
	dataDir string
	// store, when non-nil, is the open segment store behind db: audit saves
	// a warm-start snapshot into it, and audit -follow additionally
	// persists each appended log batch as a durable segment record.
	store *store.Store
	// parallelism is the batch engine's worker count.
	parallelism    int
	stdout, stderr io.Writer
}

// source is one shard's input: a -data directory, a -store directory, or
// both, when a store that does not exist yet is migrated from the
// directory. A source with neither is the generated dataset.
type source struct{ data, store string }

// resolveSources pairs the -data and -store lists by position into one
// source per shard, refusing the combinations no migration covers.
func resolveSources(dataDirs, storeDirs []string) ([]source, error) {
	switch {
	case len(storeDirs) == 1 && len(dataDirs) > 1 && store.IsStore(storeDirs[0]):
		return nil, errors.New("a single -store cannot be combined with a multi-directory -data federation")
	case len(storeDirs) == 1 && len(dataDirs) > 1:
		return nil, fmt.Errorf("a single -store cannot be migrated from %d -data shards; give one -store per shard", len(dataDirs))
	case len(storeDirs) > 0 && len(dataDirs) > 0 && len(dataDirs) != len(storeDirs):
		return nil, fmt.Errorf("-store lists %d shards but -data lists %d; the lists pair up by position", len(storeDirs), len(dataDirs))
	}
	srcs := make([]source, max(len(dataDirs), len(storeDirs), 1))
	for i := range srcs {
		if i < len(dataDirs) {
			srcs[i].data = dataDirs[i]
		}
		if i < len(storeDirs) {
			srcs[i].store = storeDirs[i]
		}
		if len(srcs) > 1 && srcs[i].data == "" && !store.IsStore(srcs[i].store) {
			return nil, fmt.Errorf("store shard %s does not exist and there is no -data shard to migrate it from", srcs[i].store)
		}
	}
	return srcs, nil
}

// openApp builds the app over its sources in three steps. Each shard's
// database is its store's when the store exists, else its -data load, else
// the generated dataset. One source becomes a core.Auditor and several a
// federate.Join, both registering the one filtered catalog. A loaded Groups
// table is reused as-is rather than retrained: a reloaded export then
// audits identically to the session that wrote it, and follow mode never
// retrains groups mid-stream. Only then are new stores written, so a single
// store holds the engine's trained Groups table and shard stores get the
// Join's merged-log one through SaveTable — which lets the next Join reuse
// it instead of retraining. Reopening an existing single store also tries
// its warm-start snapshot: masks and compiled plans resume when it still
// matches the database, and are discarded (never partially trusted) when
// it does not.
func openApp(srcs []source, gen func() (*ehr.Dataset, error), parallelism int, stderr io.Writer) (*app, error) {
	a := &app{parallelism: parallelism}
	dbs := make([]*relation.Database, len(srcs))
	stores := make([]*store.Store, len(srcs)) // existing stores until the engine is built
	var err error
	for i, src := range srcs {
		switch {
		case src.store != "" && store.IsStore(src.store):
			if stores[i], dbs[i], err = store.Open(src.store); err == nil {
				if err = validateLogSchema(dbs[i]); err != nil {
					err = fmt.Errorf("store %s: %w", src.store, err)
				}
			}
		case src.data != "":
			if dbs[i], err = loadDatabase(src.data); err != nil && len(srcs) > 1 {
				err = fmt.Errorf("shard %s: %w", src.data, err)
			}
		default:
			if a.ds, err = gen(); err == nil {
				dbs[i] = a.ds.DB
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if srcs[0].store != "" {
		a.ds = nil // a store holds no ground truth to render
	}

	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	templates := catalog(dbs, stderr)
	if len(srcs) == 1 {
		aud := core.NewAuditor(dbs[0], graph, core.WithNamer(a.namer()))
		if !dbs[0].HasTable(core.DefaultGroupsTable) {
			a.hier = aud.BuildGroups(core.GroupsOptions{})
		}
		aud.AddTemplates(templates...)
		a.eng, a.auditor, a.db, a.dataDir = aud, aud, dbs[0], srcs[0].data
		if st := stores[0]; st != nil {
			ws, err := st.LoadWarmState(a.db)
			switch {
			case err == nil:
				fmt.Fprintf(stderr, "ebaudit: warm start from %s: %d masks restored\n",
					st.Dir(), aud.InstallWarmState(ws))
			case errors.Is(err, store.ErrStaleSnapshot):
				fmt.Fprintf(stderr, "ebaudit: %v (starting cold)\n", err)
			case errors.Is(err, store.ErrNoSnapshot):
				// Nothing to resume; a cold start is the ordinary first run.
			default:
				return nil, err
			}
		}
	} else {
		names := make([]string, len(srcs))
		for i, src := range srcs {
			names[i] = filepath.Base(filepath.Clean(cmp.Or(src.store, src.data)))
		}
		fed, err := federate.Join(dbs, graph, federate.WithShardNames(names...))
		if err != nil {
			return nil, err
		}
		fed.AddTemplates(templates...)
		a.eng, a.hier = fed, fed.Hierarchy()
	}

	for i, src := range srcs {
		if src.store == "" || stores[i] != nil {
			continue
		}
		if stores[i], err = store.Create(src.store, dbs[i]); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "ebaudit: created store %s (%d tables)\n", src.store, len(dbs[i].TableNames()))
	}
	if a.auditor != nil {
		a.store = stores[0]
	} else if a.hier != nil && srcs[0].store != "" {
		// The Join trained Groups this start: persist the table so the next
		// Join over these stores reuses it instead.
		gt := a.hier.Table(core.DefaultGroupsTable)
		for i, st := range stores {
			if err := st.SaveTable(gt); err != nil {
				return nil, fmt.Errorf("persisting Groups table to %s: %w", srcs[i].store, err)
			}
		}
		fmt.Fprintf(stderr, "ebaudit: persisted merged-log Groups table to %d shard store(s)\n", len(stores))
	}
	return a, nil
}

// catalog returns the hand-crafted templates every shard database has the
// event tables for, noting each one it skips instead of letting it panic at
// evaluation time. Groups never counts as missing: the engine trains and
// installs one when the database carries none.
func catalog(dbs []*relation.Database, stderr io.Writer) []explain.Template {
	var out []explain.Template
	for _, t := range explain.Handcrafted(true, true).All() {
		tables := explain.TemplateTables(t)
		missing := slices.DeleteFunc(tables, func(name string) bool {
			return name == core.DefaultGroupsTable || !slices.ContainsFunc(dbs, func(db *relation.Database) bool { return !db.HasTable(name) })
		})
		if len(missing) > 0 {
			sort.Strings(missing)
			fmt.Fprintf(stderr, "ebaudit: skipping template %s (missing tables: %s)\n",
				t.Name(), strings.Join(missing, ", "))
			continue
		}
		out = append(out, t)
	}
	return out
}

// loadDatabase reads every *.csv table in dir (the `ebaudit export` format)
// and validates the audit-log schema, returning descriptive errors for the
// malformed-input cases the relation and query layers would otherwise panic
// on: a missing Log table, a missing required column, a bad CSV row.
func loadDatabase(dir string) (*relation.Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading -data directory: %w", err)
	}
	db := relation.NewDatabase()
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".csv")
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		t, err := relation.Load(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		db.AddTable(t)
		loaded++
	}
	if loaded == 0 {
		return nil, fmt.Errorf("no .csv tables found in %s", dir)
	}
	if err := validateLogSchema(db); err != nil {
		return nil, fmt.Errorf("dataset in %s: %w", dir, err)
	}
	return db, nil
}

// validateLogSchema checks the audit-log contract a loaded or store-opened
// database must satisfy before the query layer sees it: a Log table with
// the required columns, and join columns whose kinds agree.
func validateLogSchema(db *relation.Database) error {
	log := db.Table(pathmodel.LogTable)
	if log == nil {
		return fmt.Errorf("has no %s table", pathmodel.LogTable)
	}
	for _, col := range pathmodel.RequiredLogColumns() {
		if !log.HasColumn(col) {
			return fmt.Errorf("%s table lacks required column %q (have %s)",
				pathmodel.LogTable, col, strings.Join(log.Columns(), ", "))
		}
	}
	return validateJoinKinds(db)
}

// validateJoinKinds checks every schema-graph join the database holds both
// tables of — an edge, or either hop through its bridge table — from the
// headers alone: both columns must exist and declare one kind. An int
// column joined to a string column matches nothing, so a mismatch would
// otherwise drop every explanation through the join without an error. A
// column that holds only nulls has no kind and joins nothing either way.
func validateJoinKinds(db *relation.Database) error {
	kind := func(a schemagraph.Attr) (relation.Kind, error) {
		t := db.Table(a.Table)
		c, ok := t.ColumnIndex(a.Column)
		if !ok {
			return 0, fmt.Errorf("%s table lacks column %q, which the schema graph joins on (have %s)",
				a.Table, a.Column, strings.Join(t.Columns(), ", "))
		}
		return t.ColumnKind(c), nil
	}
	for _, e := range ehr.SchemaGraph(ehr.DefaultGraphOptions()).Edges() {
		hops := [][2]schemagraph.Attr{{e.From, e.To}}
		if v := e.Via; v != nil {
			hops = [][2]schemagraph.Attr{
				{e.From, {Table: v.Table, Column: v.FromColumn}},
				{{Table: v.Table, Column: v.ToColumn}, e.To},
			}
		}
		for _, h := range hops {
			if !db.HasTable(h[0].Table) || !db.HasTable(h[1].Table) {
				continue
			}
			k0, err := kind(h[0])
			if err != nil {
				return err
			}
			k1, err := kind(h[1])
			if err != nil {
				return err
			}
			if k0 != k1 && k0 != relation.KindNull && k1 != relation.KindNull {
				return fmt.Errorf("join column kinds disagree: %s is %s but %s is %s",
					h[0], relation.KindName(k0), h[1], relation.KindName(k1))
			}
		}
	}
	return nil
}

// federation partitions the single-engine app's log into k row ranges of
// one federated engine for `audit -shards K`, reusing the app's Groups
// table, namer, and registered templates so the federated output is
// identical to the single engine's.
func (a *app) federation(k int) (*federate.Federation, error) {
	fed, err := federate.Split(a.db, ehr.SchemaGraph(ehr.DefaultGraphOptions()), k, nil,
		federate.WithNamer(a.namer()))
	if err != nil {
		return nil, err
	}
	fed.AddTemplates(a.auditor.Templates()...)
	return fed, nil
}

// saveWarmState persists the auditor's current derived state — its cached
// template masks — into the app's store so
// the next session over the same store resumes warm. It is a no-op without
// a store; only a single engine has one (shard stores of a federation keep
// no snapshot).
func (a *app) saveWarmState() error {
	if a.store == nil {
		return nil
	}
	return a.store.SaveWarmState(a.db, a.auditor.CaptureWarmState())
}

// namer resolves display names: the generator's ground-truth names, or raw
// ids for loaded datasets that carry none — the same namer the engine
// renders reports with.
func (a *app) namer() explain.Namer {
	if a.ds != nil {
		return a.ds
	}
	return explain.NullNamer{}
}

func (a *app) summary() error {
	fmt.Fprintln(a.stdout, a.eng.Summary())
	if fed, ok := a.eng.(*federate.Federation); ok {
		for _, si := range fed.ShardInfos() {
			fmt.Fprintf(a.stdout, "  %s: %d rows\n", si.Name, si.Rows)
		}
	} else {
		for _, line := range a.db.Summary() {
			fmt.Fprintln(a.stdout, "  "+line)
		}
	}
	frac, err := a.eng.ExplainedFraction(context.Background(), a.parallelism)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.stdout, "explained fraction with hand-crafted templates: %.3f\n", frac)
	return nil
}

// audit runs the concurrent batch engine over the whole log. The default
// mode prints throughput, the explained fraction, and a sample of the
// unexplained residue; -stream instead pipes every report to stdout as
// NDJSON in log order through the bounded streaming pipeline (memory stays
// flat no matter how large the log), with the human-readable summary on
// stderr. -shards K cuts the log into K row runs audited by federated shard
// engines (federate.TimeRanges cuts); the reports — streamed or summarized —
// are identical to the single-engine audit, only the engine topology
// changes.
func (a *app) audit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	fs.SetOutput(a.stderr)
	n := fs.Int("n", 10, "maximum unexplained rows to show")
	verbose := fs.Bool("v", false, "also report engine internals (plan-cache and mask-cache counters)")
	stream := fs.Bool("stream", false, "emit every report as NDJSON on stdout (log order, bounded memory)")
	shards := fs.Int("shards", 0, "partition the log into K fault-isolated row ranges of one federated engine")
	follow := fs.Bool("follow", false, "after auditing the current log, poll -data for appended rows and emit only their NDJSON reports (incremental mask refresh)")
	poll := fs.Duration("poll", 2*time.Second, "follow mode: longest wait between -data polls; on Linux, a write to Log.csv wakes the poll at once")
	followRows := fs.Int("follow-rows", 0, "follow mode: exit once this many rows have been audited (0 = run until interrupted)")
	tracePath := fs.String("trace", "", "write the audit's observability spans to FILE as NDJSON (one span per line)")
	explainPlans := fs.Bool("explain", false, "after auditing, print each template's plan decisions and per-op execution counters (single engine only)")
	retries := fs.Int("retries", 0, "federated audits: per-shard-call retry budget beyond the first attempt (capped-jittered-exponential backoff between attempts)")
	grace := fs.Duration("grace", 30*time.Second, "follow mode: keep retrying failed -data polls with backoff for this window before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 0 {
		return fmt.Errorf("audit -n must be at least 0, got %d", *n)
	}
	if *followRows < 0 {
		return fmt.Errorf("audit -follow-rows must be at least 0, got %d", *followRows)
	}
	if *retries < 0 {
		return fmt.Errorf("audit -retries must be >= 0, got %d", *retries)
	}
	if *grace <= 0 {
		return fmt.Errorf("audit -grace must be positive, got %v", *grace)
	}
	// run() validates -j >= 1, so the worker count is always concrete here.
	workers := a.parallelism

	// fed is the federation the audit runs on, nil for a single engine.
	eng := a.eng
	fed, _ := eng.(*federate.Federation)
	shardsSet, retriesSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "shards":
			shardsSet = true
		case "retries":
			retriesSet = true
		}
	})
	if shardsSet {
		if fed != nil {
			return errors.New("audit -shards cannot be combined with a multi-directory -data federation")
		}
		if *shards < 1 {
			return fmt.Errorf("audit -shards must be at least 1, got %d", *shards)
		}
		var err error
		if fed, err = a.federation(*shards); err != nil {
			return err
		}
		eng = fed
	}
	if fed != nil {
		fed.SetRetries(*retries)
	} else if retriesSet {
		return errors.New("audit -retries requires a federated audit (-shards K, or a multi-directory -data/-store list)")
	}
	if *follow {
		switch {
		case *stream:
			return errors.New("audit -follow already streams NDJSON; drop -stream")
		case fed != nil:
			return errors.New("audit -follow requires a single engine (no -shards or multi-directory -data)")
		case a.dataDir == "":
			return errors.New("audit -follow requires -data DIR (a generated dataset has no append source to poll)")
		case *poll <= 0:
			return fmt.Errorf("audit -poll must be positive, got %v", *poll)
		}
	}

	if *explainPlans {
		if fed != nil {
			return errors.New("audit -explain requires a single engine (no -shards or multi-directory -data)")
		}
		// Exec stats must be on before the audit so the per-plan counters
		// cover the run the report describes.
		obs.SetEnabled(true)
		a.auditor.Evaluator().SetExecStats(true)
	}
	var finishTrace func() error
	if *tracePath != "" {
		var err error
		if finishTrace, err = startTrace(*tracePath, a.stderr); err != nil {
			return err
		}
	}

	var err error
	if *follow {
		err = a.auditFollow(workers, *poll, *grace, *followRows, *verbose)
	} else {
		err = a.auditOnce(eng, fed, workers, *n, *verbose, *stream)
	}

	// Post-run observability surfacing, on every audit mode's exit path: the
	// span drain (even after a failed run — partial traces are exactly what
	// a failure investigation wants), then the explain report and the -v
	// metrics dump. Stream and follow modes own stdout for NDJSON, so those
	// reports go to stderr there and to stdout otherwise.
	if finishTrace != nil {
		if terr := finishTrace(); err == nil {
			err = terr
		}
	}
	if err == nil {
		if *explainPlans {
			human := a.stdout
			if *stream || *follow {
				human = a.stderr
			}
			a.printExplainReport(human)
		}
		if *verbose {
			dumpMetrics(a.stderr, eng.MetricsSnapshot())
		}
	}
	return err
}

// auditOnce audits every access of eng's log once. With stream, every
// report goes to stdout as NDJSON (StreamNDJSON's lines, one write per
// encoded chunk) and the summary to stderr. Otherwise nothing is rendered:
// the template masks answer which accesses are unexplained (Unexplained),
// and the summary and up to n of those accesses, read off the log, go to
// stdout. The same code serves a single engine and a federation: K=1 and
// K>1 outputs are byte-identical, and only the topology-specific tail
// differs — a single engine saves its warm state.
func (a *app) auditOnce(eng engine, fed *federate.Federation, workers, n int, verbose, stream bool) error {
	ctx := context.Background()
	human := a.stdout
	var unexplained []int
	total, explained := 0, 0
	start := time.Now()
	var err error
	if stream {
		// Chunks are whole lines written as they arrive, so a failed audit
		// leaves stdout a clean prefix of the stream, never a torn line.
		human = a.stderr
		err = eng.StreamNDJSON(ctx, workers, func(buf []byte, rows, expl int) error {
			total += rows
			explained += expl
			_, err := a.stdout.Write(buf)
			return err
		})
	} else if unexplained, err = eng.Unexplained(ctx, workers); err == nil {
		total = eng.Log().NumRows()
		explained = total - len(unexplained)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	federated, across := "", ""
	if fed != nil {
		federated, across = "federated ", fmt.Sprintf(" across %d shards", fed.NumShards())
	}
	rate := float64(total) / elapsed.Seconds()
	pct := 100 * float64(explained) / float64(max(total, 1))
	if stream {
		fmt.Fprintf(human, "streamed %d reports%s in %v (%.0f accesses/sec, %d workers); explained: %d (%.2f%%)\n",
			total, across, elapsed.Round(time.Millisecond), rate, workers, explained, pct)
	} else {
		fmt.Fprintf(human, "%sbatch-audited %d accesses%s in %v (%.0f accesses/sec, %d workers)\n",
			federated, total, across, elapsed.Round(time.Millisecond), rate, workers)
		fmt.Fprintf(human, "explained: %d (%.2f%%), unexplained: %d\n", explained, pct, len(unexplained))
	}
	if verbose {
		a.printStats(human, fed, workers)
	}
	a.printAccesses(human, eng.Log(), unexplained, n)
	if fed == nil {
		return a.saveWarmState()
	}
	return nil
}

// printStats reports the query-engine internals: plan-cache hit/miss
// counters, the template-mask cache's hit/recompute/extension outcomes and
// the stream's instance-memo outcomes — for a federation aggregated over its
// engines, each counted once, plus one line per shard (its rows, and its own
// engine's counters for a Join shard), with the dictionary and plan
// footprint for a single engine.
func (a *app) printStats(w io.Writer, fed *federate.Federation, workers int) {
	if fed != nil {
		agg := fed.PlanCacheStats()
		fmt.Fprintf(w, "plan cache (all shards): %d hits, %d misses; mask cache: %d hits, %d recomputes, %d extensions\n",
			agg.Hits, agg.Misses, agg.MaskHits, agg.MaskRecomputes, agg.MaskExtensions)
		printMemoStats(w, fed.MetricsSnapshot())
		for _, si := range fed.ShardInfos() {
			if si.Stats == nil { // a Split range of the one engine above
				fmt.Fprintf(w, "  %s: %d rows\n", si.Name, si.Rows)
				continue
			}
			fmt.Fprintf(w, "  %s: %d rows, plan cache %d hits / %d misses, masks %d/%d/%d\n",
				si.Name, si.Rows, si.Stats.Hits, si.Stats.Misses,
				si.Stats.MaskHits, si.Stats.MaskRecomputes, si.Stats.MaskExtensions)
		}
		return
	}
	st := a.auditor.PlanCacheStats()
	fmt.Fprintf(w, "plan cache: %d hits, %d misses (%d compiled plans reused across %d workers)\n",
		st.Hits, st.Misses, st.Misses, workers)
	reg := a.auditor.Evaluator().Metrics()
	fmt.Fprintf(w, "dictionary: %d values interned; compiled plans hold %d resident bytes\n",
		reg.Gauge("query.dict.values").Value(), reg.Gauge("query.plan.resident_bytes").Value())
	fmt.Fprintf(w, "mask cache: %d hits, %d recomputes, %d incremental extensions\n",
		st.MaskHits, st.MaskRecomputes, st.MaskExtensions)
	printMemoStats(w, a.auditor.MetricsSnapshot())
}

// printMemoStats reports how many path-template renders the stream served
// from its instance memo instead of walking (query.instances.memo_hits /
// .memo_misses); nothing when no stream ran.
func printMemoStats(w io.Writer, snap map[string]obs.Metric) {
	hits, misses := snap["query.instances.memo_hits"].Value, snap["query.instances.memo_misses"].Value
	if hits+misses == 0 {
		return
	}
	fmt.Fprintf(w, "instance memo: %d hits, %d misses (%.1f%% of path-template renders reused a walk)\n",
		hits, misses, 100*float64(hits)/float64(hits+misses))
}

// auditFollow is the incremental mode of the audit subcommand: it audits
// the rows already loaded, emits their NDJSON reports, then polls the -data
// directory's Log.csv for appended rows, folds each batch in with
// core.Auditor.Refresh (cached template masks are extended over just the
// new rows — never recomputed from row 0), and emits only the new reports.
// The concatenated output is byte-identical to a single `audit -stream`
// over the final log, which the CLI differential test pins down.
//
// Between polls it waits on logWatch: on Linux an inotify watch of the -data
// directory, started before the catch-up stream, ends the wait as soon as
// Log.csv is written, created or renamed onto, so a batch is audited as it
// lands and -poll only bounds the wait (a missed event costs at most one
// interval); elsewhere the wait sleeps out -poll.
//
// Each poll reads and parses only the bytes appended since the last one
// (see logTail.poll), after checking what still has to hold for the log to
// be an extension of the rows already audited: the header line is
// byte-for-byte the one the session started with, and the file is no
// shorter than the end of the audited rows. A torn final row (a writer
// caught mid-append) is not an error: rows become visible only once
// newline-terminated, so a later poll picks the row up once it is
// complete. Genuine poll errors — the data file renamed away mid-rotation,
// a transient read failure — are retried with capped-jittered-exponential
// backoff for the grace window: a fault that heals within it costs nothing
// but stderr noise, one that persists past it ends the session with the
// underlying error. A log that shrank or changed its header is handled the
// same way, because follow mode is defined only for append-only growth.
func (a *app) auditFollow(workers int, poll, grace time.Duration, stopRows int, verbose bool) error {
	log := a.db.MustTable(pathmodel.LogTable)
	ctx := context.Background()
	// The watch starts before the catch-up, so a row appended while the
	// catch-up streams wakes the first poll.
	logFile := pathmodel.LogTable + ".csv"
	watch := watchLog(a.dataDir, logFile)
	defer watch.Close()

	// Initial catch-up: the whole current log through the worker-pool
	// streaming pipeline (identical bytes to a one-shot audit -stream; the
	// appended batches below are small and encoded on the auditor's own
	// cursor, one AppendNDJSONRows call per batch).
	if err := a.auditor.StreamNDJSON(ctx, workers, func(buf []byte, _, _ int) error {
		_, err := a.stdout.Write(buf)
		return err
	}); err != nil {
		return err
	}
	audited := log.NumRows()
	fmt.Fprintf(a.stderr, "following %s: %d reports emitted, waiting at most %v between polls\n",
		a.dataDir, audited, poll)
	// A follow session usually ends by interruption (no defers run), so
	// durable state is written after the catch-up and after every appended
	// batch rather than on return: kill the process at any point and the
	// store holds every audited row plus a snapshot of the masks that
	// audited them, so the next session resumes warm instead of rebuilding.
	if err := a.saveWarmState(); err != nil {
		return err
	}
	if verbose {
		a.printStats(a.stderr, nil, workers)
	}

	tail := &logTail{path: filepath.Join(a.dataDir, logFile)}
	var errSince time.Time
	var lines []byte // each appended batch's NDJSON, one write per batch
	// Healthy polls wait for a write to Log.csv, at most the poll interval;
	// failed polls retry on a backoff ramp starting at the poll interval.
	retryBo := &fault.Backoff{Base: poll, Cap: 8 * poll}
	for stopRows <= 0 || audited < stopRows {
		if errSince.IsZero() {
			watch.wait(poll)
		} else {
			time.Sleep(retryBo.Next())
		}
		batch, err := tail.poll(log)
		if err != nil {
			now := time.Now()
			if errSince.IsZero() {
				errSince = now
				retryBo.Reset()
			}
			if elapsed := now.Sub(errSince); elapsed >= grace {
				return fmt.Errorf("follow poll failing for %v (grace %v): %w",
					elapsed.Round(time.Millisecond), grace, err)
			}
			fmt.Fprintf(a.stderr, "ebaudit: follow poll (retrying within %v grace): %v\n", grace, err)
			continue
		}
		errSince = time.Time{}
		if batch == nil || batch.NumRows() == 0 {
			continue
		}
		log.AppendTable(batch)
		if a.store != nil {
			// Persist the batch before auditing it: one checksummed segment
			// record per poll, synced, so a crash between here and the
			// snapshot save below loses derived state but never rows.
			if err := a.store.AppendTable(pathmodel.LogTable, batch); err != nil {
				return err
			}
		}
		if err := a.auditor.Refresh(ctx, workers); err != nil {
			return err
		}
		added := batch.NumRows()
		if lines, err = a.auditor.AppendNDJSONRows(lines[:0], audited, audited+added); err != nil {
			return err
		}
		if _, err := a.stdout.Write(lines); err != nil {
			return err
		}
		audited += added
		if err := a.saveWarmState(); err != nil {
			return err
		}
		fmt.Fprintf(a.stderr, "appended %d rows (%d audited)\n", added, audited)
		if verbose {
			a.printStats(a.stderr, nil, workers)
		}
	}
	return nil
}

// logTail is follow mode's read position in the -data directory's Log.csv:
// the header line the audited rows were read under and the byte offset just
// past the last of them. The prefix before the offset is trusted, as a
// database tailing a write-ahead log trusts records already applied, so a
// poll reads and parses only the bytes after it: its cost follows the rows
// appended since the last poll, not the length of the log.
type logTail struct {
	path   string
	stat   os.FileInfo // size and mtime at the last successful poll; nil before the first
	header []byte      // the header line, newline included; nil until a poll has seen it whole
	offset int64       // the byte just past the last row poll returned (or the log held)
}

// poll returns the complete rows appended to the file since the last poll,
// as a table with log's columns and kinds for the caller to append to log,
// or nil when there are none. The first poll that sees the whole header
// line locates the offset: it checks the header declares log's columns and
// their kinds and steps over log.NumRows() newline-terminated rows,
// scanning bytes without parsing them. Every poll then checks, before reading anything
// past the offset:
//
//   - the file's size and mtime: unchanged since the last poll, it returns
//     at once — an idle tick is one stat call;
//   - the header line, which must be byte-for-byte the one the offset was
//     located under (else "changed columns");
//   - the size, which must not be below the offset (else "shrank").
//
// It then reads [offset, size) and cuts it after the last newline. A writer
// appending in place may be caught mid-row, so only newline-terminated rows
// are visible: the bytes after the cut are a torn row left for a later
// poll, once the writer finishes it. Without the cut, a torn row would
// either surface as a parse error on every poll until completed or — worse
// — parse cleanly as a truncated value (a Lid "10" caught after one byte is
// a valid "1") and be appended wrongly. The cut is safe because the export
// format never quotes fields, so a row cannot contain embedded newlines.
// The rows before the cut are parsed by relation.Load under the saved
// header, exactly as a whole-file load would parse them, and the offset
// advances past them. A failed poll leaves the tail as it was, so the next
// poll checks everything again.
func (lt *logTail) poll(log *relation.Table) (*relation.Table, error) {
	stat, err := os.Stat(lt.path)
	if err != nil {
		return nil, err
	}
	if lt.stat != nil && stat.Size() == lt.stat.Size() && stat.ModTime().Equal(lt.stat.ModTime()) {
		return nil, nil
	}
	f, err := os.Open(lt.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The bytes read below are bounded by the stat of the open file, not of
	// the path, which a rename may have pointed elsewhere meanwhile.
	if stat, err = f.Stat(); err != nil {
		return nil, err
	}
	size := stat.Size()
	if lt.header == nil {
		if err := lt.locate(f, size, log); err != nil {
			return nil, err
		}
		if lt.header == nil {
			// Even the header line is still being written; nothing is
			// visible yet. The completing write grows the file, so the stat
			// short-circuit cannot mask it.
			lt.stat = stat
			return nil, nil
		}
	} else if err := lt.checkHeader(f, size); err != nil {
		return nil, err
	}
	if size < lt.offset {
		return nil, fmt.Errorf("reloaded %s table shrank to %d bytes, below the end of its audited rows at byte %d; follow mode is append-only",
			pathmodel.LogTable, size, lt.offset)
	}
	suffix := make([]byte, size-lt.offset)
	if _, err := f.ReadAt(suffix, lt.offset); err != nil {
		return nil, err
	}
	cut := bytes.LastIndexByte(suffix, '\n')
	if cut < 0 {
		lt.stat = stat // at most a torn row: nothing new is visible
		return nil, nil
	}
	t, err := relation.Load(pathmodel.LogTable, io.MultiReader(bytes.NewReader(lt.header), bytes.NewReader(suffix[:cut+1])))
	if err != nil {
		// Load numbers lines from the header; say where the parse began.
		return nil, fmt.Errorf("rows after byte %d: %w", lt.offset, err)
	}
	lt.offset += int64(cut + 1)
	lt.stat = stat
	return t, nil
}

// locate reads the file's header line and steps over the log.NumRows() rows
// after it, setting header and offset. It leaves both unset when the header
// line is not complete yet. A file whose header names other columns than
// log's or declares another kind for one of them, or that ends before log's
// rows do, is an error. Blank lines are not rows, as relation.Load skips
// them.
func (lt *logTail) locate(f *os.File, size int64, log *relation.Table) error {
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 64<<10)
	header, err := br.ReadBytes('\n')
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	t, err := relation.Load(pathmodel.LogTable, bytes.NewReader(header))
	if err != nil {
		return err
	}
	if !slices.Equal(t.Columns(), log.Columns()) || !sameKinds(log, t) {
		return fmt.Errorf("reloaded %s table changed columns (%s -> %s)",
			pathmodel.LogTable, typedColumns(log), typedColumns(t))
	}
	offset := int64(len(header))
	midRow := false // the last read ended inside a row longer than the buffer
	for rows := 0; rows < log.NumRows(); {
		line, err := br.ReadSlice('\n')
		offset += int64(len(line))
		switch {
		case err == bufio.ErrBufferFull:
			midRow = true
			continue
		case err == io.EOF:
			return fmt.Errorf("reloaded %s table shrank from %d to %d rows; follow mode is append-only",
				pathmodel.LogTable, log.NumRows(), rows)
		case err != nil:
			return err
		case midRow || !blankLine(line):
			rows++
		}
		midRow = false
	}
	lt.header, lt.offset = header, offset
	return nil
}

// sameKinds reports whether every column of t has the kind of log's column
// at its position, where a log column no value has declared yet (it holds
// only nulls) takes any kind.
func sameKinds(log, t *relation.Table) bool {
	for c := range log.Columns() {
		if k := log.ColumnKind(c); k != relation.KindNull && k != t.ColumnKind(c) {
			return false
		}
	}
	return true
}

// typedColumns lists t's columns as a header does, "name:kind".
func typedColumns(t *relation.Table) string {
	cols := make([]string, len(t.Columns()))
	for c, name := range t.Columns() {
		cols[c] = name + ":" + relation.KindName(t.ColumnKind(c))
	}
	return strings.Join(cols, ",")
}

// checkHeader reports an error unless the file's header line is the one
// the offset was located under.
func (lt *logTail) checkHeader(f *os.File, size int64) error {
	got := make([]byte, len(lt.header))
	n, err := f.ReadAt(got, 0)
	if err != nil && err != io.EOF {
		return err
	}
	if bytes.Equal(got[:n], lt.header) {
		return nil
	}
	line, _ := bufio.NewReader(io.NewSectionReader(f, 0, size)).ReadSlice('\n')
	return fmt.Errorf("reloaded %s table changed columns (header %q -> %q); follow mode is append-only",
		pathmodel.LogTable, bytes.TrimRight(lt.header, "\r\n"), bytes.TrimRight(line, "\r\n"))
}

// blankLine reports whether line, newline included, is empty: a line
// encoding/csv skips rather than reads as a record.
func blankLine(line []byte) bool {
	return len(line) == 1 || (len(line) == 2 && line[0] == '\r')
}

func (a *app) patient(args []string) error {
	fs := flag.NewFlagSet("patient", flag.ContinueOnError)
	fs.SetOutput(a.stderr)
	id := fs.Int64("id", 1, "patient id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reports, err := a.eng.PatientReport(relation.Int(*id), 1)
	if err != nil {
		return err
	}
	if len(reports) == 0 {
		return fmt.Errorf("no accesses recorded for patient %d", *id)
	}
	fmt.Fprintf(a.stdout, "access report for %s (%d accesses)\n", a.namer().PatientName(relation.Int(*id)), len(reports))
	for _, r := range reports {
		fmt.Fprintf(a.stdout, "  L%d %s — %s\n", r.Lid, r.Date, r.UserName)
		if !r.Explained() {
			fmt.Fprintf(a.stdout, "      (no explanation found — consider reporting to the compliance office)\n")
			continue
		}
		for i, e := range r.Explanations {
			if i >= 2 {
				fmt.Fprintf(a.stdout, "      ... and %d more explanations\n", len(r.Explanations)-i)
				break
			}
			fmt.Fprintf(a.stdout, "      because %s [%s]\n", e.Text, e.Template)
		}
	}
	return nil
}

func (a *app) mine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ContinueOnError)
	fs.SetOutput(a.stderr)
	algo := fs.String("algo", mine.AlgoOneWay, "one-way, two-way, or bridge-N")
	maxLen := fs.Int("M", 4, "maximum path length")
	support := fs.Float64("s", 0.01, "support fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxLen < 1 {
		return fmt.Errorf("mine -M must be at least 1, got %d", *maxLen)
	}
	opt := mine.DefaultOptions()
	opt.MaxLength = *maxLen
	opt.SupportFraction = *support
	opt.Parallelism = a.parallelism
	res, err := a.eng.MineTemplates(*algo, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.stdout, "mined %d templates (%s, s=%.2f%%, M=%d, T=%d); review before adoption:\n",
		len(res.Templates), *algo, opt.SupportFraction*100, opt.MaxLength, opt.MaxTables)
	for _, p := range res.Templates {
		fmt.Fprintf(a.stdout, "  len=%d  %s\n", p.Length(), p.String())
	}
	fmt.Fprintf(a.stdout, "stats: candidates=%d queries=%d cacheHits=%d skipped=%d\n",
		res.Stats.CandidatesGenerated, res.Stats.SupportQueries,
		res.Stats.CacheHits, res.Stats.Skipped)
	return nil
}

// unexplained prints the misuse-detection shortlist: every access no
// template explains, rendered from the audited log through the app's namer
// (with the generator's ground-truth cause when there is one).
func (a *app) unexplained(args []string) error {
	fs := flag.NewFlagSet("unexplained", flag.ContinueOnError)
	fs.SetOutput(a.stderr)
	n := fs.Int("n", 20, "maximum rows to show")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 0 {
		return fmt.Errorf("unexplained -n must be at least 0, got %d", *n)
	}
	rows, err := a.eng.Unexplained(context.Background(), a.parallelism)
	if err != nil {
		return err
	}
	log := a.eng.Log()
	total := log.NumRows()
	fmt.Fprintf(a.stdout, "%d of %d accesses unexplained (%.2f%%)\n",
		len(rows), total, 100*float64(len(rows))/float64(max(total, 1)))
	namer := a.namer()
	lc := pathmodel.LogColumnsOf(log)
	for i, r := range rows {
		if i >= *n {
			fmt.Fprintf(a.stdout, "  ... and %d more\n", len(rows)-i)
			break
		}
		fmt.Fprintf(a.stdout, "  L%-6d %s  %-22s -> %-18s",
			log.Int(r, lc.Lid), log.Cell(r, lc.Date),
			namer.UserName(log.Cell(r, lc.User)),
			namer.PatientName(log.Cell(r, lc.Patient)))
		if a.ds != nil {
			fmt.Fprintf(a.stdout, " (ground truth: %s)", a.ds.Causes[r])
		}
		fmt.Fprintln(a.stdout)
	}
	return nil
}

// printAccesses prints up to n of log's rows, one access a line (Lid, date,
// user and patient names), then how many it left out.
func (a *app) printAccesses(w io.Writer, log *relation.Table, rows []int, n int) {
	namer := a.namer()
	lc := pathmodel.LogColumnsOf(log)
	for i, r := range rows {
		if i >= n {
			fmt.Fprintf(w, "  ... and %d more\n", len(rows)-i)
			return
		}
		fmt.Fprintf(w, "  L%-6d %s  %-22s -> %s\n",
			log.Int(r, lc.Lid), log.Cell(r, lc.Date),
			namer.UserName(log.Cell(r, lc.User)),
			namer.PatientName(log.Cell(r, lc.Patient)))
	}
}

func (a *app) groups(args []string) error {
	fs := flag.NewFlagSet("groups", flag.ContinueOnError)
	fs.SetOutput(a.stderr)
	depth := fs.Int("depth", 1, "hierarchy depth to display")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *depth < 0 {
		return fmt.Errorf("groups -depth must be at least 0, got %d", *depth)
	}
	if a.hier == nil {
		return errors.New("no collaborative-group hierarchy available (a Groups table loaded from -data is reused as-is, without its training hierarchy)")
	}
	d := *depth
	if d > a.hier.MaxDepth() {
		d = a.hier.MaxDepth()
	}
	byGroup := a.hier.GroupsAt(d)
	ids := make([]int, 0, len(byGroup))
	for id := range byGroup {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintf(a.stdout, "%d collaborative groups at depth %d (hierarchy depth %d)\n", len(ids), d, a.hier.MaxDepth())
	for _, id := range ids {
		members := byGroup[id]
		counts := map[string]int{}
		if a.ds != nil {
			for _, u := range members {
				if user := a.ds.UserByAudit(u.AsInt()); user != nil {
					counts[user.DeptCode]++
				}
			}
		}
		fmt.Fprintf(a.stdout, "  group %d: %d members", id, len(members))
		codes := make([]string, 0, len(counts))
		for c := range counts {
			codes = append(codes, c)
		}
		slices.SortFunc(codes, func(x, y string) int { return cmp.Or(counts[y]-counts[x], strings.Compare(x, y)) })
		for i, c := range codes {
			if i >= 3 {
				break
			}
			fmt.Fprintf(a.stdout, "  [%s x%d]", c, counts[c])
		}
		fmt.Fprintln(a.stdout)
	}
	return nil
}

func (a *app) templates() error {
	for _, t := range a.eng.Templates() {
		fmt.Fprintf(a.stdout, "%s (length %d)\n%s\n\n", t.Name(), t.Length(), t.SQL())
	}
	return nil
}

// export dumps every table of the database as typed CSV files, so the
// synthetic hospital can be inspected with external tools or loaded back
// with -data.
func (a *app) export(args []string) error {
	if a.auditor == nil {
		return errors.New("export is not supported over a federated -data load; export each shard directory's source instead")
	}
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	fs.SetOutput(a.stderr)
	dir := fs.String("dir", "ebaudit-export", "output directory")
	format := fs.String("format", "csv", "output format: csv (typed CSVs) or store (binary segment store, see -store)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "csv":
	case "store":
		if _, err := store.Create(*dir, a.db); err != nil {
			return err
		}
		for _, name := range a.db.TableNames() {
			fmt.Fprintf(a.stdout, "wrote %s (%d rows)\n",
				filepath.Join(*dir, name+".seg"), a.db.MustTable(name).NumRows())
		}
		return nil
	default:
		return fmt.Errorf("unknown export format %q (want csv or store)", *format)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	for _, name := range a.db.TableNames() {
		path := filepath.Join(*dir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := a.db.MustTable(name).Dump(f); err != nil {
			f.Close()
			return fmt.Errorf("dumping %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(a.stdout, "wrote %s (%d rows)\n", path, a.db.MustTable(name).NumRows())
	}
	return nil
}
