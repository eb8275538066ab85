// Package repro's root benchmark suite regenerates every table and figure of
// the paper's evaluation (one benchmark per artifact, named after it), plus
// micro-benchmarks for the substrate operations and ablation benchmarks for
// the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks operate on the Small dataset (~1/50 CareWeb) and
// report the figure's rendered output once per run via b.Log at -v.
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

	"repro/internal/accesslog"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/experiments"
	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/federate"
	"repro/internal/groups"
	"repro/internal/metrics"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
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

// batchAuditor builds (once) a fully configured auditor over the Figure-6
// scale dataset — the Small hospital's whole week of accesses with the
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
		seq, err1 := a.ExplainAll(context.Background(), 1)
		par, err8 := a.ExplainAll(context.Background(), 8)
		if err := errors.Join(err1, err8); err != nil {
			auditorErr = err.Error()
			return
		}
		if !reflect.DeepEqual(seq, par) {
			auditorErr = "parallel ExplainAll reports differ from sequential"
			return
		}
		auditorInst = a
	})
	if auditorErr != "" {
		b.Fatal(auditorErr)
	}
	return auditorInst
}

// benchmarkExplainAll times one full batch audit of the log at the given
// worker count.
func benchmarkExplainAll(b *testing.B, parallelism int) {
	a := batchAuditor(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reports, err := a.ExplainAll(ctx, parallelism); err != nil || len(reports) == 0 {
			b.Fatalf("no reports (err %v)", err)
		}
	}
}

// BenchmarkExplainAllSequential is the single-worker baseline the parallel
// variants are judged against.
func BenchmarkExplainAllSequential(b *testing.B) { benchmarkExplainAll(b, 1) }

// BenchmarkExplainAllParallel4 runs the batch auditing engine with 4
// workers; the acceptance bar is ≥ 2x over the sequential baseline.
func BenchmarkExplainAllParallel4(b *testing.B) { benchmarkExplainAll(b, 4) }

// BenchmarkExplainAllParallel8 runs the batch auditing engine with 8
// workers.
func BenchmarkExplainAllParallel8(b *testing.B) { benchmarkExplainAll(b, 8) }

// BenchmarkUnexplainedParallel times the parallel misuse-detection shortlist
// (masks pre-warmed, so this isolates the sharded union scan).
func BenchmarkUnexplainedParallel(b *testing.B) {
	a := batchAuditor(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Unexplained(ctx, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (event frequency, all accesses).
func BenchmarkFigure6(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := experiments.Figure6(e)
		if len(f.Bars) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7 (hand-crafted recall, all accesses).
func BenchmarkFigure7(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure7(e)
	}
}

// BenchmarkFigure8 regenerates Figure 8 (event frequency, first accesses).
func BenchmarkFigure8(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure8(e)
	}
}

// BenchmarkFigure9 regenerates Figure 9 (hand-crafted recall, first
// accesses).
func BenchmarkFigure9(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure9(e)
	}
}

// BenchmarkFigure10_11 regenerates the collaborative-group composition
// analysis of Figures 10 and 11.
func BenchmarkFigure10_11(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := experiments.Figure10_11(e, 2)
		if len(f.Groups) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkFigure12 regenerates Figure 12 (group predictive power by
// hierarchy depth).
func BenchmarkFigure12(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure12(e)
	}
}

// BenchmarkFigure12Decorated regenerates the decorated-template variant of
// Figure 12 (§5.3.4 future work).
func BenchmarkFigure12Decorated(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure12Decorated(e)
	}
}

// BenchmarkFigure13 regenerates Figure 13 (mining performance, all five
// algorithms). This is the heaviest benchmark; each iteration runs five
// complete mining passes.
func BenchmarkFigure13(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure13(e)
	}
}

// BenchmarkFigure13OneWay times only the one-way miner, for quick
// comparisons.
func BenchmarkFigure13OneWay(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure13(e, mine.AlgoOneWay)
	}
}

// BenchmarkFigure14 regenerates Figure 14 (mined template predictive power).
func BenchmarkFigure14(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure14(e)
	}
}

// BenchmarkTable1 regenerates Table 1 (template stability across periods).
func BenchmarkTable1(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table1(e)
	}
}

// BenchmarkHeadline regenerates the headline ">94% explained" numbers.
func BenchmarkHeadline(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Headline(e)
	}
}

// --- prepared-plan benchmarks ----------------------------------------------

// BenchmarkPreparedReuse measures what the engine-level plan cache buys on
// the mask-evaluation hot path: repeated row classification through one
// prepared handle (compiled once, shared by every cursor) against a
// compile-each-time baseline that drops the cache before every evaluation
// and so re-lowers the plan's projections each time.
func BenchmarkPreparedReuse(b *testing.B) {
	e := smallEnv(b)
	closed := explain.GroupTemplate("appt-same-group", "Appointments", "an appointment").Path
	open := explain.NewIndicator("appt", "Appointments").Path

	b.Run("open/prepared", func(b *testing.B) {
		ev := query.NewEvaluator(e.DS.DB)
		pp := ev.Prepare(open)
		pp.ConnectedRows() // warm the cursor's scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(pp.ConnectedRows()) == 0 {
				b.Fatal("empty mask")
			}
		}
	})
	b.Run("open/recompile", func(b *testing.B) {
		ev := query.NewEvaluator(e.DS.DB)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.InvalidatePlans()
			if len(ev.ConnectedRows(open)) == 0 {
				b.Fatal("empty mask")
			}
		}
	})
	b.Run("closed/prepared", func(b *testing.B) {
		ev := query.NewEvaluator(e.DS.DB)
		pp := ev.Prepare(closed)
		pp.ExplainedRows() // warm the cursor's scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(pp.ExplainedRows()) == 0 {
				b.Fatal("empty mask")
			}
		}
	})
	b.Run("closed/recompile", func(b *testing.B) {
		ev := query.NewEvaluator(e.DS.DB)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.InvalidatePlans()
			if len(ev.ExplainedRows(closed)) == 0 {
				b.Fatal("empty mask")
			}
		}
	})
}

// benchmarkMaskSharded times computing every template mask from scratch at
// the given worker count: ensureMasks shards each template's log-row range
// across the pool (explain.Template.EvaluateRange over shared prepared
// plans), so unlike BenchmarkExplainAll — whose masks are cached after the
// first iteration — this isolates the intra-template mask sharding the
// prepared-plan API enables.
func benchmarkMaskSharded(b *testing.B, parallelism int) {
	a := batchAuditor(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ResetMaskCache()
		if f, err := a.ExplainedFraction(ctx, parallelism); err != nil || f == 0 {
			b.Fatalf("zero explained fraction (err %v)", err)
		}
	}
}

// BenchmarkMaskShardedSequential is the single-worker mask-computation
// baseline.
func BenchmarkMaskShardedSequential(b *testing.B) { benchmarkMaskSharded(b, 1) }

// BenchmarkMaskSharded4 computes masks with 4 workers; with intra-template
// sharding even a catalog of few expensive templates scales past
// one-worker-per-template.
func BenchmarkMaskSharded4(b *testing.B) { benchmarkMaskSharded(b, 4) }

// BenchmarkMaskSharded8 computes masks with 8 workers.
func BenchmarkMaskSharded8(b *testing.B) { benchmarkMaskSharded(b, 8) }

// BenchmarkMineParallel compares the one-way miner's candidate-evaluation
// stage at 1 and 8 workers; results are identical, only wall-clock differs.
func BenchmarkMineParallel(b *testing.B) {
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	for _, par := range []int{1, 8} {
		b.Run(fmt.Sprintf("j=%d", par), func(b *testing.B) {
			ev, opt := miningSetup(b)
			opt.Parallelism = par
			for i := 0; i < b.N; i++ {
				mine.OneWay(ev, graph, opt)
			}
		})
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
// collaborative groups included — and pre-warmed masks, so the streaming and
// materializing benchmarks below time only the report path, at the
// explanations-per-row the audit workloads of bench/ see.
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
// zero, while BenchmarkExplainAllMedium — the same work materialized —
// retains the whole report slice. Comparing the two shows what bounded
// buffering buys at hospital scale.
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

// BenchmarkExplainAllMedium materializes the same Medium audit that
// BenchmarkStreamReports streams; its live-B metric is the retained
// full-log report slice the streaming pipeline avoids.
func BenchmarkExplainAllMedium(b *testing.B) {
	a := mediumAuditor(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var worst float64
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		reports, err := a.ExplainAll(ctx, 8)
		if err != nil || len(reports) == 0 {
			b.Fatalf("no reports (err %v)", err)
		}
		if d := liveHeap() - before; d > worst {
			worst = d
		}
		runtime.KeepAlive(reports)
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
		rows := ev.Clone().Prepare(tpl.Path).ExplainedRows()
		if len(rows) == 0 {
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
		pp := ev.Prepare(tpl.Path)
		if len(pp.ExplainedRows()) == 0 {
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
// pre-warmed, so BenchmarkFederatedStream times the shard-after-shard
// report path and nothing else.
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

// BenchmarkFederatedStream drives the full federated audit of the Medium
// log — 4 shard engines, one after another, each streaming its run of the
// log through the bounded core pipeline — through a consuming sink. Compare
// against BenchmarkStreamReports (one engine, same log, same catalog): the
// work is identical, so the delta is the federation overhead (per-shard
// pipelines and resilience loop), and the live-B metric shows the shard
// pipelines retain no more than the single-engine stream does.
func BenchmarkFederatedStream(b *testing.B) {
	f := mediumFederation(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var worst float64
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		texts := 0
		if err := f.StreamReports(ctx, 8, func(rep core.AccessReport) error {
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

// BenchmarkFaultOverhead pins the cost of carrying fault-injection seams in
// the hot paths. single-disabled mirrors BenchmarkStreamReports and
// federated-disabled mirrors BenchmarkFederatedStream with the registry in
// its default disabled state, so comparing each against its twin measures
// the seams' overhead — one atomic load per guard, which must stay within
// noise (~2%). federated-armed keeps the registry enabled with a rule that
// matches no engine site, timing the rule-scan path the per-row seam takes
// once any injector is installed.
func BenchmarkFaultOverhead(b *testing.B) {
	ctx := context.Background()
	drive := func(b *testing.B, stream func(fn func(core.AccessReport) error) error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			texts := 0
			if err := stream(func(rep core.AccessReport) error {
				texts += len(rep.Explanations)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			if texts == 0 {
				b.Fatal("no explanations streamed")
			}
		}
	}
	b.Run("single-disabled", func(b *testing.B) {
		a := mediumAuditor(b)
		drive(b, func(fn func(core.AccessReport) error) error {
			return a.StreamReports(ctx, 8, fn)
		})
	})
	b.Run("federated-disabled", func(b *testing.B) {
		f := mediumFederation(b)
		drive(b, func(fn func(core.AccessReport) error) error {
			return f.StreamReports(ctx, 8, fn)
		})
	})
	b.Run("federated-armed", func(b *testing.B) {
		f := mediumFederation(b)
		fault.Install(fault.Rule{Site: "bench.nowhere"})
		b.Cleanup(fault.Reset)
		drive(b, func(fn func(core.AccessReport) error) error {
			return f.StreamReports(ctx, 8, fn)
		})
	})
}

// --- micro-benchmarks -----------------------------------------------------

// BenchmarkGenerateSmall times dataset generation.
func BenchmarkGenerateSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := ehr.Generate(ehr.Small())
		if ds.Log().NumRows() == 0 {
			b.Fatal("empty log")
		}
	}
}

// BenchmarkClustering times user-graph construction plus hierarchical
// modularity clustering.
func BenchmarkClustering(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := groups.BuildUserGraph(e.TrainLog)
		h := groups.BuildHierarchy(g, 8)
		if h.MaxDepth() < 1 {
			b.Fatal("degenerate hierarchy")
		}
	}
}

// BenchmarkSupportLen2 times exact support evaluation of a length-2
// template over the full log.
func BenchmarkSupportLen2(b *testing.B) {
	e := smallEnv(b)
	ev := query.NewEvaluator(e.DS.DB)
	tpl := explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev.Support(tpl.Path) == 0 {
			b.Fatal("zero support")
		}
	}
}

// BenchmarkSupportLen4Groups times support evaluation of the length-4
// collaborative-group template, the most expensive hand-crafted query.
func BenchmarkSupportLen4Groups(b *testing.B) {
	e := smallEnv(b)
	ev := query.NewEvaluator(e.DS.DB)
	tpl := explain.GroupTemplate("appt-same-group", "Appointments", "an appointment")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev.Support(tpl.Path) == 0 {
			b.Fatal("zero support")
		}
	}
}

// BenchmarkInstances times instance enumeration — the walk under every
// rendered explanation — for one template of each path shape: one op
// enumerates up to three instances for every log row the template explains,
// on one cursor. nodes/binding is the walk's work per instance produced
// (query.instances.nodes ÷ .bindings; the blind search it replaced spent 77
// across the catalog).
func BenchmarkInstances(b *testing.B) {
	e := smallEnv(b)
	for _, c := range []struct {
		name string
		tpl  *explain.PathTemplate
	}{
		{"direct2", explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")},
		{"dept4", explain.DeptTemplate("appt-same-dept", "Appointments", "an appointment")},
		{"group4", explain.GroupTemplate("appt-same-group", "Appointments", "an appointment")},
	} {
		b.Run(c.name, func(b *testing.B) {
			ev := query.NewEvaluator(e.DS.DB)
			var rows []int
			for row, explained := range ev.ExplainedRows(c.tpl.Path) {
				if explained {
					rows = append(rows, row)
				}
			}
			if len(rows) == 0 {
				b.Fatal("template explains nothing")
			}
			reg := ev.Metrics()
			nodes, bindings := reg.Counter("query.instances.nodes").Value(), reg.Counter("query.instances.bindings").Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					if len(ev.Instances(c.tpl.Path, row, 3)) == 0 {
						b.Fatalf("explained row %d has no instance", row)
					}
				}
			}
			b.StopTimer()
			nodes, bindings = reg.Counter("query.instances.nodes").Value()-nodes, reg.Counter("query.instances.bindings").Value()-bindings
			b.ReportMetric(float64(nodes)/float64(bindings), "nodes/binding")
		})
	}
}

// BenchmarkEstimate times the optimizer-style cardinality estimate that the
// skip-non-selective optimization relies on being much cheaper than exact
// evaluation.
func BenchmarkEstimate(b *testing.B) {
	e := smallEnv(b)
	ev := query.NewEvaluator(e.DS.DB)
	tpl := explain.GroupTemplate("appt-same-group", "Appointments", "an appointment")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EstimateSupport(tpl.Path)
	}
}

// BenchmarkFirstAccesses times first-access extraction over the full log.
func BenchmarkFirstAccesses(b *testing.B) {
	e := smallEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if accesslog.FirstAccesses(e.FullLog).NumRows() == 0 {
			b.Fatal("no first accesses")
		}
	}
}

// --- ablation benchmarks ---------------------------------------------------

func miningSetup(b *testing.B) (*query.Evaluator, mine.Options) {
	e := smallEnv(b)
	db, audited := e.MiningDB()
	opt := e.Cfg.Mining
	opt.MaxLength = 4 // keep ablations comparable and fast
	return query.NewEvaluatorWithLog(db, audited), opt
}

// BenchmarkAblationSupportCache compares mining with and without the
// canonical-condition support cache (§3.2.1 optimization 1).
func BenchmarkAblationSupportCache(b *testing.B) {
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	b.Run("cache=on", func(b *testing.B) {
		ev, opt := miningSetup(b)
		opt.CacheSupport = true
		for i := 0; i < b.N; i++ {
			mine.OneWay(ev, graph, opt)
		}
	})
	b.Run("cache=off", func(b *testing.B) {
		ev, opt := miningSetup(b)
		opt.CacheSupport = false
		for i := 0; i < b.N; i++ {
			mine.OneWay(ev, graph, opt)
		}
	})
}

// BenchmarkAblationSkip compares mining with and without the
// skip-non-selective-paths optimization (§3.2.1 optimization 3).
func BenchmarkAblationSkip(b *testing.B) {
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	b.Run("skip=on", func(b *testing.B) {
		ev, opt := miningSetup(b)
		opt.SkipNonSelective = true
		for i := 0; i < b.N; i++ {
			mine.OneWay(ev, graph, opt)
		}
	})
	b.Run("skip=off", func(b *testing.B) {
		ev, opt := miningSetup(b)
		opt.SkipNonSelective = false
		for i := 0; i < b.N; i++ {
			mine.OneWay(ev, graph, opt)
		}
	})
}

// BenchmarkAblationDistinct compares the DISTINCT-projection support
// evaluator against the naive nested-loop evaluator (§3.2.1 optimization 2)
// on the length-2 appointment template.
func BenchmarkAblationDistinct(b *testing.B) {
	e := smallEnv(b)
	tpl := explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")
	// Evaluate over first accesses to keep the naive variant tractable.
	db, audited := e.MiningDB()
	ev := query.NewEvaluatorWithLog(db, audited)
	want := ev.Support(tpl.Path)
	b.Run("distinct=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ev.Support(tpl.Path) != want {
				b.Fatal("support mismatch")
			}
		}
	})
	b.Run("distinct=off(naive)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ev.SupportNaive(tpl.Path) != want {
				b.Fatal("support mismatch")
			}
		}
	})
}

// BenchmarkAblationIndex compares the indexed nested-join evaluator
// (SupportNaive) against the fully index-free linear-scan baseline
// (SupportScan) on the length-2 appointment template, isolating what the
// per-column hash indexes buy on top of nothing.
func BenchmarkAblationIndex(b *testing.B) {
	e := smallEnv(b)
	tpl := explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")
	db, audited := e.MiningDB()
	ev := query.NewEvaluatorWithLog(db, audited)
	want := ev.Support(tpl.Path)
	b.Run("index=on(naive)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ev.SupportNaive(tpl.Path) != want {
				b.Fatal("support mismatch")
			}
		}
	})
	b.Run("index=off(scan)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ev.SupportScan(tpl.Path) != want {
				b.Fatal("support mismatch")
			}
		}
	})
}

// BenchmarkAblationBridgeLength sweeps the bridged miner's half-length,
// complementing Figure 13.
func BenchmarkAblationBridgeLength(b *testing.B) {
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	for _, l := range []int{2, 3, 4} {
		b.Run(mine.AlgoBridge(l), func(b *testing.B) {
			ev, opt := miningSetup(b)
			for i := 0; i < b.N; i++ {
				mine.Bridged(ev, graph, opt, l)
			}
		})
	}
}

// --- incremental append benchmarks -----------------------------------------

var (
	incrOnce    sync.Once
	incrAud     *core.Auditor
	incrLog     *relation.Table
	incrPattern [][]relation.Value
	incrNextLid int64
	incrMaxDate int64
)

// incrementalAuditor builds (once) a mutable Medium auditor — separate from
// the shared read-only one, because these benchmarks append to its log —
// with the non-group catalog and pre-warmed masks, plus an append pattern:
// the last ~1% of the generated log, re-stamped per batch with fresh
// ascending Lids at the log's final date so every batch is a chronological
// append of realistic rows (existing patients and users, so the dictionary
// and compiled plans are reused as in production).
func incrementalAuditor(b *testing.B) (*core.Auditor, *relation.Table) {
	b.Helper()
	incrOnce.Do(func() {
		ds := ehr.Generate(ehr.Medium())
		a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
		a.AddTemplates(explain.Handcrafted(true, false).All()...)
		if err := a.Refresh(context.Background(), 8); err != nil { // warm masks
			panic(err)
		}
		incrAud = a
		incrLog = ds.DB.MustTable(pathmodel.LogTable)
		n := incrLog.NumRows()
		li, _ := incrLog.ColumnIndex(pathmodel.LogIDColumn)
		di, _ := incrLog.ColumnIndex(pathmodel.LogDateColumn)
		for r := 0; r < n; r++ {
			if lid := incrLog.Row(r)[li].AsInt(); lid >= incrNextLid {
				incrNextLid = lid + 1
			}
			if d := incrLog.Row(r)[di].AsInt(); d > incrMaxDate {
				incrMaxDate = d
			}
		}
		batch := n / 100
		if batch < 1 {
			batch = 1
		}
		for r := n - batch; r < n; r++ {
			incrPattern = append(incrPattern, incrLog.Row(r))
		}
	})
	return incrAud, incrLog
}

// appendIncrementalBatch appends one pattern batch (~1% of Medium) of
// strictly later (Date, Lid) rows and returns the batch size.
func appendIncrementalBatch(log *relation.Table) int {
	li, _ := log.ColumnIndex(pathmodel.LogIDColumn)
	di, _ := log.ColumnIndex(pathmodel.LogDateColumn)
	for _, src := range incrPattern {
		row := append([]relation.Value(nil), src...)
		row[li] = relation.Int(incrNextLid)
		row[di] = relation.Date(int(incrMaxDate))
		incrNextLid++
		log.Append(row...)
	}
	return len(incrPattern)
}

// BenchmarkIncrementalAppend measures the tentpole: append 1% of the Medium
// log, then Refresh — cached template masks are extended over just the new
// rows on surviving compiled plans, so each iteration costs O(new rows).
// Compare ns/op and allocs/op against
// BenchmarkIncrementalAppendColdBaseline (same append, masks and plans
// dropped first — the pre-incremental behavior of recomputing the world);
// the acceptance bar is >= 5x on both.
func BenchmarkIncrementalAppend(b *testing.B) {
	a, log := incrementalAuditor(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendIncrementalBatch(log)
		if err := a.Refresh(ctx, 8); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := a.PlanCacheStats(); st.MaskExtensions == 0 {
		b.Fatal("incremental benchmark never extended a mask")
	}
}

// BenchmarkIncrementalAppendColdBaseline performs the same append but drops
// every cached mask and compiled plan first, so Refresh rebuilds masks from
// row 0 — what every mutation cost before append-aware invalidation.
func BenchmarkIncrementalAppendColdBaseline(b *testing.B) {
	a, log := incrementalAuditor(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendIncrementalBatch(log)
		a.ResetMaskCache()
		a.Evaluator().InvalidatePlans()
		if err := a.Refresh(ctx, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- packed-mask benchmarks ------------------------------------------------

var (
	maskFixOnce sync.Once
	maskBools   [][]bool
	maskBits    []*bitset.Bits
)

// maskFixtures evaluates (once) every catalog template mask over the Medium
// log in both representations.
func maskFixtures(b *testing.B) ([][]bool, []*bitset.Bits) {
	b.Helper()
	a := mediumAuditor(b)
	maskFixOnce.Do(func() {
		ev := a.Evaluator()
		for _, tpl := range a.Templates() {
			m := tpl.Evaluate(ev)
			maskBools = append(maskBools, m)
			maskBits = append(maskBits, bitset.FromBools(m))
		}
	})
	return maskBools, maskBits
}

// BenchmarkMaskBitsetUnion times the packed union + fraction over the
// Medium catalog masks — one OR and one popcount per 64 rows. Compare
// against BenchmarkMaskBitsetBoolBaseline, the element-wise []bool path the
// engine used before (8x the memory, one branch per row per mask).
func BenchmarkMaskBitsetUnion(b *testing.B) {
	_, bits := maskFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = metrics.FractionBits(metrics.UnionBits(bits...))
	}
	if sink == 0 {
		b.Fatal("explained fraction is zero")
	}
}

// BenchmarkMaskBitsetBoolBaseline is the element-wise []bool union +
// fraction BenchmarkMaskBitsetUnion replaces.
func BenchmarkMaskBitsetBoolBaseline(b *testing.B) {
	bools, _ := maskFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = metrics.Fraction(metrics.Union(bools...))
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
// report touches no history. The ratio to BenchmarkColdStart is the repo's
// durable-warm-start headline (target: at least 5x).
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
		masks, _ := a.InstallWarmState(ws)
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
