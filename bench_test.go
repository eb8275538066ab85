// Package repro's root benchmarks are the in-process measurements the docs
// cite: each one backs a named README, bench/README.md or ROADMAP sentence,
// or a bound its comment states. The paper's tables and figures are
// regenerated by cmd/ebabench, and end-to-end speed is measured by the perf
// ledger under bench/. Run with:
//
//	go test -run='^$' -bench=. -benchmem .
package repro

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/experiments"
	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/federate"
	"repro/internal/groups"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/store"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env

	auditorOnce sync.Once
	auditorInst *core.Auditor
	auditorErr  string
)

func smallEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() { benchEnv = experiments.Prepare(experiments.Default()) })
	return benchEnv
}

// batchAuditor builds (once) a fully configured auditor over the Small
// hospital's whole week of accesses with the
// complete hand-crafted catalog — with template masks pre-warmed, and
// differentially verifies that the parallel batch engine reproduces the
// sequential reports before any timing starts.
func batchAuditor(b *testing.B) *core.Auditor {
	b.Helper()
	e := smallEnv(b)
	auditorOnce.Do(func() {
		a := core.NewAuditor(e.DS.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(e.DS))
		// experiments.Prepare already installed the trained Groups table.
		a.AddTemplates(explain.Handcrafted(true, true).All()...)
		seq, err1 := collectReports(a, 1)
		par, err8 := collectReports(a, 8)
		if err := errors.Join(err1, err8); err != nil {
			auditorErr = err.Error()
			return
		}
		if !reflect.DeepEqual(seq, par) {
			auditorErr = "parallel StreamReports reports differ from sequential"
			return
		}
		auditorInst = a
	})
	if auditorErr != "" {
		b.Fatal(auditorErr)
	}
	return auditorInst
}

// collectReports gathers one StreamReports run of a into a slice in log-row
// order.
func collectReports(a *core.Auditor, parallelism int) ([]core.AccessReport, error) {
	var out []core.AccessReport
	err := a.StreamReports(context.Background(), parallelism, func(rep core.AccessReport) error {
		out = append(out, rep)
		return nil
	})
	return out, err
}

// BenchmarkExplainAllSequential times one full batch audit of the Small log
// at one worker with every mask warm, collected into one slice, so it prices
// rendering on its own.
func BenchmarkExplainAllSequential(b *testing.B) {
	a := batchAuditor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reports, err := collectReports(a, 1); err != nil || len(reports) == 0 {
			b.Fatalf("no reports (err %v)", err)
		}
	}
}

// BenchmarkMineBridge2 is the ledger's `mine` operation in-process: bridge-2
// mining to M=5 over the whole Small log (Groups included) on a fresh engine
// each iteration, so planning, lowering and the support queries are all
// paid, at one worker and at GOMAXPROCS.
func BenchmarkMineBridge2(b *testing.B) {
	e := smallEnv(b)
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("j=%d", par), func(b *testing.B) {
			opt := mine.DefaultOptions()
			opt.MaxLength = 5
			opt.Parallelism = par
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := mine.Run(mine.AlgoBridge(2), query.NewEvaluator(e.DS.DB), graph, opt)
				if err != nil || len(res.Templates) == 0 {
					b.Fatalf("mining found %d templates, err %v", len(res.Templates), err)
				}
			}
		})
	}
}

// BenchmarkMaskBuildCold rebuilds all 20 catalog masks of the Small auditor
// from row 0 each iteration (plans stay cached): the mask-evaluation layer
// of a cold audit on its own.
func BenchmarkMaskBuildCold(b *testing.B) {
	a := batchAuditor(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ResetMaskCache()
		if f, err := a.ExplainedFraction(ctx, 0); err != nil || f == 0 {
			b.Fatalf("nothing explained (err %v)", err)
		}
	}
}

// --- streaming benchmarks --------------------------------------------------

var (
	mediumOnce sync.Once
	mediumAud  *core.Auditor
)

// mediumAuditor builds (once) an auditor over the Medium hospital (~95k log
// rows) with the catalog the CLI registers — every hand-crafted template,
// collaborative groups included — and pre-warmed masks, so the benchmarks
// below time only what they name, at the explanations-per-row the audit
// workloads of bench/ see.
func mediumAuditor(b *testing.B) *core.Auditor {
	b.Helper()
	mediumOnce.Do(func() {
		ds := ehr.Generate(ehr.Medium())
		a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
		a.BuildGroups(core.GroupsOptions{})
		a.AddTemplates(explain.Handcrafted(true, true).All()...)
		if err := a.Refresh(context.Background(), 8); err != nil { // warm masks
			panic(err)
		}
		mediumAud = a
	})
	return mediumAud
}

// liveHeap forces a collection and returns the bytes still reachable — the
// peak-retention measure the streaming pipeline is designed to shrink.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// BenchmarkStreamReports drives the full streaming audit of the Medium log
// through a consuming sink. The reported live-B metric is the heap still
// reachable after the run: the stream retains nothing, so it stays near
// zero.
func BenchmarkStreamReports(b *testing.B) {
	a := mediumAuditor(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var worst float64
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		texts := 0
		if err := a.StreamReports(ctx, 8, func(rep core.AccessReport) error {
			texts += len(rep.Explanations)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if texts == 0 {
			b.Fatal("no explanations streamed")
		}
		if d := liveHeap() - before; d > worst {
			worst = d
		}
	}
	if worst < 0 {
		worst = 0
	}
	b.ReportMetric(worst, "live-B")
}

// benchmarkEval classifies every Medium log row through the length-4
// department template on a fresh engine each iteration, reporting the worst
// heap evaluation left reachable while the engine lives — the footprint a
// long-lived plan entry pins between evaluations. The baseline is taken
// after Prepare and one untimed support count (which interns the log into
// the engine's dictionary, a cost of the engine and not of the plan), and
// the output mask and the classifying cursor are dropped before measuring,
// so the metric isolates what evaluating retains on top of the compiled
// plan: the walk memoizes in the cursor's scratch and keeps nothing, so
// live-B should be a small constant.
func BenchmarkEvalLazy(b *testing.B) {
	a := mediumAuditor(b)
	tpl := explain.DeptTemplate("appt-same-dept", "Appointments", "an appointment")
	b.ReportAllocs()
	b.ResetTimer()
	var worst float64
	for i := 0; i < b.N; i++ {
		ev := query.NewEvaluator(a.Database())
		b.StopTimer()
		ev.Prepare(tpl.Path).Support() // interns the log, once per engine
		before := liveHeap()
		b.StartTimer()
		n := ev.Log().NumRows()
		rows := bitset.New(n)
		ev.Clone().Prepare(tpl.Path).ExplainedRange(0, n, rows)
		if rows.Count() == 0 {
			b.Fatal("empty mask")
		}
		rows = nil
		_ = rows
		if d := liveHeap() - before; d > worst {
			worst = d
		}
		runtime.KeepAlive(ev)
	}
	if worst < 0 {
		worst = 0
	}
	b.ReportMetric(worst, "live-B")
}

// BenchmarkObsOverhead prices the observability layer on the hot
// evaluation of BenchmarkEvalLazy. The disabled sub-benchmark runs with
// every obs surface off — its cost over the plain BenchmarkEvalLazy is the
// layer's passive tax (one atomic gate load per entry point plus a nil
// check per op visit), and the PR's acceptance bar holds it within 2% of
// the pre-PR baseline. The enabled sub-benchmark turns on the full surface
// — timed metrics, an active span tracer, and per-op exec stats — and
// prices what a diagnosed run pays.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchmarkEvalObs(b, false) })
	b.Run("enabled", func(b *testing.B) { benchmarkEvalObs(b, true) })
}

// benchmarkEvalObs is BenchmarkEvalLazy's evaluation with the observability
// surface toggled as one unit: obs.Enabled (timed metrics), an installed
// tracer, and per-engine exec statistics.
func benchmarkEvalObs(b *testing.B, enabled bool) {
	if enabled {
		obs.SetEnabled(true)
		prev := obs.SetTracer(obs.NewTracer(0))
		b.Cleanup(func() {
			obs.SetEnabled(false)
			obs.SetTracer(prev)
		})
	}
	a := mediumAuditor(b)
	tpl := explain.DeptTemplate("appt-same-dept", "Appointments", "an appointment")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := query.NewEvaluator(a.Database())
		ev.SetExecStats(enabled)
		n := ev.Log().NumRows()
		rows := bitset.New(n)
		ev.Prepare(tpl.Path).ExplainedRange(0, n, rows)
		if rows.Count() == 0 {
			b.Fatal("empty mask")
		}
	}
}

// --- federated benchmarks --------------------------------------------------

var (
	fedOnce sync.Once
	fedInst *federate.Federation
	fedErr  string
)

// mediumFederation partitions the Medium auditor's database across 4 shard
// engines (TimeRanges cut points, same non-group catalog) with masks
// pre-warmed, so BenchmarkFaultOverhead's federated runs time the
// shard-after-shard NDJSON path and nothing else.
func mediumFederation(b *testing.B) *federate.Federation {
	b.Helper()
	a := mediumAuditor(b)
	fedOnce.Do(func() {
		// The auditor's database already holds the Groups table it trained.
		f, err := federate.Split(a.Database(), ehr.SchemaGraph(ehr.DefaultGraphOptions()), 4, nil)
		if err != nil {
			fedErr = err.Error()
			return
		}
		f.AddTemplates(explain.Handcrafted(true, true).All()...)
		if _, err := f.Refresh(context.Background(), 8); err != nil { // warm masks
			fedErr = err.Error()
			return
		}
		fedInst = f
	})
	if fedErr != "" {
		b.Fatal(fedErr)
	}
	return fedInst
}

// BenchmarkFaultOverhead pins the cost of carrying fault-injection seams in
// the hot paths, all three sub-benchmarks on the one NDJSON sink so single
// and federated compare like for like. single-disabled streams the single
// engine with the registry in its default disabled state, and
// federated-disabled the 4-shard Split: comparing the two measures the
// federation's seams — one atomic load per guard, which must stay within
// noise (~2%). federated-armed keeps the registry enabled with a rule that
// matches no engine site, timing the rule-scan path the per-row seam takes
// once any injector is installed; compare it against federated-disabled.
func BenchmarkFaultOverhead(b *testing.B) {
	ctx := context.Background()
	drive := func(b *testing.B, e interface {
		StreamNDJSON(ctx context.Context, parallelism int, emit func(buf []byte, rows, explained int) error) error
	}) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			explained := 0
			if err := e.StreamNDJSON(ctx, 8, func(_ []byte, _, x int) error {
				explained += x
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			if explained == 0 {
				b.Fatal("no explained access streamed")
			}
		}
	}
	b.Run("single-disabled", func(b *testing.B) {
		drive(b, mediumAuditor(b))
	})
	b.Run("federated-disabled", func(b *testing.B) {
		drive(b, mediumFederation(b))
	})
	b.Run("federated-armed", func(b *testing.B) {
		f := mediumFederation(b)
		fault.Install(fault.Rule{Site: "bench.nowhere"})
		b.Cleanup(fault.Reset)
		drive(b, f)
	})
}

// --- packed-mask benchmarks ------------------------------------------------

var (
	maskFixOnce sync.Once
	maskBits    []*bitset.Bits
)

// maskFixtures evaluates (once) every catalog template mask over the Medium
// log.
func maskFixtures(b *testing.B) []*bitset.Bits {
	b.Helper()
	a := mediumAuditor(b)
	maskFixOnce.Do(func() {
		ev := a.Evaluator()
		n := ev.Log().NumRows()
		for _, tpl := range a.Templates() {
			m := bitset.New(n)
			tpl.EvaluateRange(ev, 0, n, m)
			maskBits = append(maskBits, m)
		}
	})
	return maskBits
}

// BenchmarkMaskBitsetUnion times the packed union + fraction over the
// Medium catalog masks — one OR and one popcount per 64 rows.
func BenchmarkMaskBitsetUnion(b *testing.B) {
	bits := maskFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		union := bitset.Union(bits...)
		sink = float64(union.Count()) / float64(union.Len())
	}
	if sink == 0 {
		b.Fatal("explained fraction is zero")
	}
}

// --- persistent-store startup benchmarks ------------------------------------

var (
	startupOnce sync.Once
	startupDir  string
	startupErr  string
)

// TestMain removes the startup store once every benchmark has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if startupDir != "" {
		os.RemoveAll(startupDir)
	}
	os.Exit(code)
}

// startupStore builds (once) a segment store of the Medium hospital with a
// saved warm-start snapshot: the dataset is persisted, a fully configured
// auditor runs one complete audit, and its masks and plan keys are captured
// via SaveWarmState. BenchmarkColdStart and BenchmarkWarmStart both open
// this directory; the only difference between them is whether the snapshot
// is installed before the first report.
func startupStore(b *testing.B) string {
	b.Helper()
	startupOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ebstore-bench")
		if err != nil {
			startupErr = err.Error()
			return
		}
		ds := ehr.Generate(ehr.Medium())
		// Train and persist the collaborative-group hierarchy, as the CLI's
		// migration path does: the store carries Groups as an ordinary table,
		// so neither start below retrains it — the cold/warm gap is purely
		// mask and plan reconstruction over the full catalog.
		ug := groups.BuildUserGraph(ds.Log())
		ds.DB.AddTable(groups.BuildHierarchy(ug, 8).Table(ehr.TableGroups))
		if _, err := store.Create(dir, ds.DB); err != nil {
			startupErr = err.Error()
			return
		}
		// Warm against the REOPENED database so the snapshot's schema-version
		// stamp matches what every later Open reconstructs.
		s, db, err := store.Open(dir)
		if err != nil {
			startupErr = err.Error()
			return
		}
		a := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()))
		a.AddTemplates(explain.Handcrafted(true, true).All()...)
		if f, err := a.ExplainedFraction(context.Background(), 8); err != nil || f == 0 {
			startupErr = fmt.Sprintf("warm-up audit explained nothing (err %v)", err)
			return
		}
		if err := s.SaveWarmState(db, a.CaptureWarmState()); err != nil {
			startupErr = err.Error()
			return
		}
		startupDir = dir
	})
	if startupErr != "" {
		b.Fatal(startupErr)
	}
	return startupDir
}

// startupAuditor opens the startup store and configures an auditor over it —
// the shared portion of a cold and a warm process start.
func startupAuditor(b *testing.B, dir string) (*store.Store, *core.Auditor) {
	s, db, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	a := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()))
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	return s, a
}

// BenchmarkColdStart measures time-to-first-report from a cold process:
// open the Medium segment store, configure the auditor, and produce the
// first access report — which forces every template mask to be computed
// from row 0. This is the startup cost a restart pays without a snapshot.
func BenchmarkColdStart(b *testing.B) {
	dir := startupStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, a := startupAuditor(b, dir)
		rep, err := a.ExplainRow(0, 1)
		if err != nil {
			b.Fatal(err)
		}
		runtime.KeepAlive(rep)
	}
}

// BenchmarkWarmStart measures the same time-to-first-report when the store's
// warm snapshot is installed first: every mask arrives cached and the first
// report touches no history. The ratio to BenchmarkColdStart is the
// README's durable-warm-start figure.
func BenchmarkWarmStart(b *testing.B) {
	dir := startupStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, a := startupAuditor(b, dir)
		ws, err := s.LoadWarmState(a.Database())
		if err != nil {
			b.Fatal(err)
		}
		masks := a.InstallWarmState(ws)
		if masks == 0 {
			b.Fatal("snapshot installed no masks")
		}
		rep, err := a.ExplainRow(0, 1)
		if err != nil {
			b.Fatal(err)
		}
		runtime.KeepAlive(rep)
	}
}
