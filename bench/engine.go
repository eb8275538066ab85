package main

// engine.go is the only file of the benchmark that imports repro/internal:
// every call into a layer's public API is made here, inside a span. The
// symbols it uses are listed in README.md; a change that renames or removes
// one of them has exactly this file to edit.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/federate"
	"repro/internal/groups"
	"repro/internal/mine"
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/store"
)

const (
	logTable       = "Log"
	renderSample   = 2000 // explained (template, row) pairs rendered per class
	patientSample  = 200  // patients reported on by the warm probe
	chunkSample    = 200_000
	mergeSample    = 50_000 // items per source of the merge probe
	mergeSources   = 4
	mergeBuffer    = 256 // what federate hands MergeStreams
	windowPerChunk = 4   // what core hands OrderedChunks per worker
)

// probeInput names the inputs the layer probes run on: copies made by the
// traced run's set-up of the same data the end-to-end workloads use.
type probeInput struct {
	scale     string
	seed      int64
	workers   int
	store     string // store over the full log
	baseStore string // store over the base log, for the append probe
	logCSV    string // the full Log.csv
	baseRows  int
	patients  []int64
}

func scaleConfig(scale string, seed int64) (ehr.Config, error) {
	var cfg ehr.Config
	switch scale {
	case "tiny":
		cfg = ehr.Tiny()
	case "small":
		cfg = ehr.Small()
	case "medium":
		cfg = ehr.Medium()
	default:
		return cfg, fmt.Errorf("unknown scale %q", scale)
	}
	cfg.Seed = seed
	return cfg, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// newAuditor wires an auditor the way the CLI does over an opened store:
// the full hand-crafted catalog, group templates included, over the Groups
// table the store already holds.
func newAuditor(db *relation.Database) *core.Auditor {
	a := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()))
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	return a
}

// pipeline is one in-process pass of the canonical cold audit — open the
// store, register the catalog, build every mask, render every report into
// a discard sink, save the snapshot — and what it measured.
type pipeline struct {
	st *store.Store
	db *relation.Database
	a  *core.Auditor

	wall, open, build, render, firstReport time.Duration
	rows, explanations, textBytes          int
	mallocs, allocBytes                    uint64
}

func auditPipeline(ctx context.Context, tr *tracer, dir string, workers int) (*pipeline, error) {
	p := &pipeline{}
	endAll := tr.start("bench", "audit_pipeline")
	end := tr.start("store", "open")
	var err error
	p.st, p.db, err = store.Open(dir)
	p.open = end()
	if err != nil {
		return nil, err
	}
	end = tr.start("core", "new_auditor")
	p.a = newAuditor(p.db)
	end()
	end = tr.start("core", "mask_build_cold")
	err = p.a.Refresh(ctx, workers)
	p.build = end()
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end = tr.start("core", "stream_render")
	start := time.Now()
	err = p.a.StreamReports(ctx, workers, func(rep core.AccessReport) error {
		if p.rows == 0 {
			p.firstReport = time.Since(start)
		}
		p.rows++
		p.explanations += len(rep.Explanations)
		for _, e := range rep.Explanations {
			p.textBytes += len(e.Text)
		}
		return nil
	})
	p.render = end()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	p.mallocs, p.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	end = tr.start("store", "snapshot_save")
	err = p.st.SaveWarmState(p.db, p.a.CaptureWarmState())
	end()
	p.wall = endAll()
	return p, err
}

// probeLayers runs every in-process probe and returns the per-layer values
// it measured, keyed by metric name, and the exact counts it saw. The first
// trace is the audit pipeline (run again with recording off, for
// bench.trace_overhead_frac); each later trace is one layer's probe.
func probeLayers(ctx context.Context, tr *tracer, in probeInput) (map[string]float64, map[string]int64, error) {
	v := map[string]float64{}
	rng := rand.New(rand.NewSource(in.seed))

	// One discarded pass first: the heap the first pipeline pass grows would
	// otherwise show up as negative tracing overhead on the second.
	tr.recording = false
	if _, err := auditPipeline(ctx, tr, in.store, in.workers); err != nil {
		return nil, nil, err
	}
	tr.recording = true
	tr.newTrace()
	p, err := auditPipeline(ctx, tr, in.store, in.workers)
	if err != nil {
		return nil, nil, err
	}
	self := selfTimes(tr.spans, tr.trace)
	attributed := time.Duration(0)
	for layer, d := range self {
		if layer != "bench" {
			attributed += d
		}
	}
	v["bench.unattributed_frac"] = 1 - attributed.Seconds()/p.wall.Seconds()
	tr.recording = false
	untraced, err := auditPipeline(ctx, tr, in.store, in.workers)
	tr.recording = true
	if err != nil {
		return nil, nil, err
	}
	v["bench.trace_overhead_frac"] = p.wall.Seconds()/untraced.wall.Seconds() - 1

	rows := float64(p.rows)
	st := p.a.PlanCacheStats()
	v["store.open_ms"] = ms(p.open)
	v["store.bytes_per_log_row"] = fileSize(filepath.Join(in.store, logTable+".seg")) / rows
	v["store.snapshot_bytes"] = fileSize(filepath.Join(in.store, "WARM.snap"))
	v["query.plan_ms"] = float64(st.PlanNanos) / 1e6
	v["query.plans_planned"] = float64(st.PlansPlanned)
	v["query.plan_cache_hits"] = float64(st.Hits)
	v["query.plan_cache_misses"] = float64(st.Misses)
	v["core.mask_build_cold_ms"] = ms(p.build)
	v["core.mask_recomputes"] = float64(st.MaskRecomputes)
	v["core.mask_hits"] = float64(st.MaskHits)
	v["core.stream_render_s"] = p.render.Seconds()
	v["core.stream_first_report_ms"] = ms(p.firstReport)
	v["core.stream_allocs_per_row"] = float64(p.mallocs) / rows
	v["core.stream_bytes_per_row"] = float64(p.allocBytes) / rows
	v["explain.explanations_per_row"] = float64(p.explanations) / rows
	v["explain.text_bytes_per_row"] = float64(p.textBytes) / rows

	probeExplainAndQuery(tr, p, rng, v)
	if err := probeWarm(tr, in, rng, v); err != nil {
		return nil, nil, err
	}
	if err := probeAppend(ctx, tr, in, v); err != nil {
		return nil, nil, err
	}
	if err := probeParallel(tr, in.workers, v); err != nil {
		return nil, nil, err
	}
	if err := probeFederate(ctx, tr, p, in.workers, v); err != nil {
		return nil, nil, err
	}
	if err := probeMine(tr, p, in.workers, v); err != nil {
		return nil, nil, err
	}
	counts := map[string]int64{"explanations": int64(p.explanations), "explanation_text_bytes": int64(p.textBytes)}
	return v, counts, probeGenerate(tr, in, v)
}

// probeExplainAndQuery times each template class's mask evaluation and
// rendering (explain) and one prepared support count per path shape (query),
// on the pipeline's evaluator, whose plans are already compiled.
func probeExplainAndQuery(tr *tracer, p *pipeline, rng *rand.Rand, v map[string]float64) {
	tr.newTrace()
	ev := p.a.Evaluator()
	cat := explain.Handcrafted(true, true)
	classes := []struct {
		name string
		tpls []explain.Template
	}{
		{"direct", append(append([]explain.Template(nil), cat.SetAWithDr...), cat.SetBLen2...)},
		{"dept", cat.DeptLen4},
		{"group", append(append([]explain.Template(nil), cat.GroupLen4A...), cat.GroupLen4B...)},
		{"repeat", []explain.Template{cat.RepeatAccess}},
	}
	type pair struct {
		t   explain.Template
		row int
	}
	for _, c := range classes {
		var pairs []pair
		var total time.Duration
		for _, t := range c.tpls {
			end := tr.start("explain", "mask_"+c.name)
			mask := t.Evaluate(ev)
			total += end()
			for row, explained := range mask {
				if explained {
					pairs = append(pairs, pair{t, row})
				}
			}
		}
		v["explain.mask_"+c.name+"_ms"] = ms(total)
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		pairs = pairs[:min(renderSample, len(pairs))]
		end := tr.start("explain", "render_"+c.name)
		for _, pr := range pairs {
			pr.t.Render(ev, pr.row, 0, explain.NullNamer{})
		}
		v["explain.render_"+c.name+"_us_per_row"] = us(end()) / float64(max(len(pairs), 1))
	}
	for name, t := range map[string]explain.Template{
		"direct2": cat.SetAWithDr[0], "dept4": cat.DeptLen4[0], "group4": cat.GroupLen4A[0],
	} {
		end := tr.start("query", "support_"+name)
		ev.Prepare(t.(*explain.PathTemplate).Path).Support()
		v["query.support_"+name+"_ms"] = ms(end())
	}
}

// probeWarm is the portal's path: open, load and install the snapshot the
// pipeline saved, then point reports for seeded patients.
func probeWarm(tr *tracer, in probeInput, rng *rand.Rand, v map[string]float64) error {
	tr.newTrace()
	end := tr.start("store", "open")
	st, db, err := store.Open(in.store)
	end()
	if err != nil {
		return err
	}
	a := newAuditor(db)
	end = tr.start("store", "snapshot_load")
	ws, err := st.LoadWarmState(db)
	v["store.snapshot_load_ms"] = ms(end())
	if err != nil {
		return err
	}
	a.InstallWarmState(ws)
	var reports []time.Duration
	for _, i := range rng.Perm(len(in.patients))[:min(patientSample, len(in.patients))] {
		end := tr.start("core", "patient_report")
		a.PatientReport(relation.Int(in.patients[i]), 1)
		reports = append(reports, end())
	}
	v["core.patient_report_p50_us"] = median(durationsUS(reports))
	return nil
}

// probeAppend is follow's path, step by step: re-parse the CSV, append a
// batch to the log table, rebuild its patient index, persist the batch,
// extend the masks, render the new rows one at a time, save the snapshot.
func probeAppend(ctx context.Context, tr *tracer, in probeInput, v map[string]float64) error {
	tr.newTrace()
	st, db, err := store.Open(in.baseStore)
	if err != nil {
		return err
	}
	a := newAuditor(db)
	if err := a.Refresh(ctx, in.workers); err != nil {
		return err
	}
	f, err := os.Open(in.logCSV)
	if err != nil {
		return err
	}
	end := tr.start("relation", "load_csv")
	full, err := relation.Load(logTable, f)
	v["relation.load_csv_ms"] = ms(end())
	f.Close()
	if err != nil {
		return err
	}
	log := db.MustTable(logTable)
	seg := filepath.Join(in.baseStore, logTable+".seg")
	segBefore := fileSize(seg)
	var appendRel, index, appendStore, extend, save, explainRow []time.Duration
	appended := 0
	for lo := in.baseRows; lo+followBatchRows <= full.NumRows() && appended < followMaxBatches*followBatchRows; lo += followBatchRows {
		rows := make([][]relation.Value, followBatchRows)
		end := tr.start("relation", "append")
		for i := range rows {
			rows[i] = full.Row(lo + i)
			log.Append(rows[i]...)
		}
		appendRel = append(appendRel, end())
		end = tr.start("relation", "index_rebuild")
		log.Index("Patient")
		index = append(index, end())
		end = tr.start("store", "append")
		err := st.AppendRows(logTable, rows)
		appendStore = append(appendStore, end())
		if err != nil {
			return err
		}
		end = tr.start("core", "mask_extend")
		err = a.Refresh(ctx, in.workers)
		extend = append(extend, end())
		if err != nil {
			return err
		}
		for r := lo; r < lo+followBatchRows; r++ {
			end := tr.start("core", "explain_row")
			a.ExplainRow(r, 0)
			explainRow = append(explainRow, end())
		}
		end = tr.start("store", "snapshot_save")
		err = st.SaveWarmState(db, a.CaptureWarmState())
		save = append(save, end())
		if err != nil {
			return err
		}
		appended += followBatchRows
	}
	if appended == 0 {
		return fmt.Errorf("append probe: no whole batch after row %d of %d", in.baseRows, full.NumRows())
	}
	perRow := func(ds []time.Duration) float64 {
		total := time.Duration(0)
		for _, d := range ds {
			total += d
		}
		return float64(total.Nanoseconds()) / float64(appended)
	}
	v["relation.append_ns_per_row"] = perRow(appendRel)
	v["relation.index_rebuild_ms"] = median(durationsUS(index)) / 1e3
	v["store.append_p50_us"] = median(durationsUS(appendStore))
	v["store.append_p95_us"] = percentile(durationsUS(appendStore), 95)
	v["store.append_bytes_per_row"] = (fileSize(seg) - segBefore) / float64(appended)
	v["store.snapshot_save_p50_us"] = median(durationsUS(save))
	v["core.mask_extend_p50_us"] = median(durationsUS(extend))
	v["core.mask_extensions"] = float64(a.PlanCacheStats().MaskExtensions)
	v["core.explain_row_p50_us"] = median(durationsUS(explainRow))
	return nil
}

// probeParallel times the two hand-off primitives with nothing to hand
// off: ordered chunks with an empty produce, and a merge of presorted
// sources.
func probeParallel(tr *tracer, workers int, v map[string]float64) error {
	tr.newTrace()
	end := tr.start("parallel", "ordered_chunks")
	err := parallel.OrderedChunks(workers, chunkSample, 1, workers*windowPerChunk,
		func() bool { return false },
		func(_, _, _ int) struct{} { return struct{}{} },
		func(struct{}) error { return nil })
	v["parallel.ordered_chunks_ns_per_chunk"] = float64(end().Nanoseconds()) / chunkSample
	if err != nil {
		return err
	}
	sources := make([]func(push func(int) error) error, mergeSources)
	for s := range sources {
		sources[s] = func(push func(int) error) error {
			for i := 0; i < mergeSample; i++ {
				if err := push(i*mergeSources + s); err != nil {
					return err
				}
			}
			return nil
		}
	}
	end = tr.start("parallel", "merge_streams")
	err = parallel.MergeStreams(mergeBuffer, func(a, b int) bool { return a < b }, func(int) error { return nil }, sources...)
	v["parallel.merge_streams_ns_per_item"] = float64(end().Nanoseconds()) / (mergeSample * mergeSources)
	return err
}

// probeFederate times what K=4 adds before the first report: partitioning
// the log and building every shard's masks.
func probeFederate(ctx context.Context, tr *tracer, p *pipeline, workers int, v map[string]float64) error {
	tr.newTrace()
	end := tr.start("federate", "split")
	fed, err := federate.Split(p.db, ehr.SchemaGraph(ehr.DefaultGraphOptions()), shards, nil)
	v["federate.split_ms"] = ms(end())
	if err != nil {
		return err
	}
	fed.AddTemplates(explain.Handcrafted(true, true).All()...)
	end = tr.start("federate", "mask_build")
	_, err = fed.Refresh(ctx, workers)
	v["federate.mask_build_ms"] = ms(end())
	return err
}

// probeMine times the two unbridged miners the CLI workload does not run.
func probeMine(tr *tracer, p *pipeline, workers int, v map[string]float64) error {
	tr.newTrace()
	opt := mine.DefaultOptions()
	opt.Parallelism = workers
	for metric, algo := range map[string]string{"mine.oneway_s": "one-way", "mine.twoway_s": "two-way"} {
		end := tr.start("mine", algo)
		_, err := mine.Run(algo, p.a.Evaluator(), ehr.SchemaGraph(ehr.DefaultGraphOptions()), opt)
		v[metric] = end().Seconds()
		if err != nil {
			return err
		}
	}
	return nil
}

// probeGenerate times the two set-up-only layers: dataset generation and
// collaborative-group training.
func probeGenerate(tr *tracer, in probeInput, v map[string]float64) error {
	tr.newTrace()
	cfg, err := scaleConfig(in.scale, in.seed)
	if err != nil {
		return err
	}
	end := tr.start("ehr", "generate")
	ds := ehr.Generate(cfg)
	v["ehr.generate_ms"] = ms(end())
	end = tr.start("groups", "train")
	groups.Train(ds.Log(), core.DefaultGroupsMaxDepth)
	v["groups.train_ms"] = ms(end())
	return nil
}
