package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

// cliReps is how many cold K=1 / K=4 audit pairs the traced run drives for
// the cli layer's numbers.
const cliReps = 2

// layerReport is the traced run's part of result.json.
type layerReport struct {
	Workload string             `json:"workload"`
	Values   map[string]float64 `json:"values"`
	Counts   map[string]int64   `json:"exact_counts"`
	Spans    int                `json:"spans"`
	Failures []string           `json:"failures,omitempty"`
}

// runTraced is the separate traced run. It measures the same layers
// whatever the workload: the cli layer from outside (child rusage and the
// pipe), every other layer in-process on copies of the same store, inside
// spans written to tracePath when the run ends.
func (b *bench) runTraced(ctx context.Context, man *manifest, led *ledger, workload, tracePath string, stdout io.Writer) (summaryLine, error) {
	line := summaryLine{Metrics: map[string]metricValue{}}
	dir, err := os.MkdirTemp(b.tmp, "traced-")
	if err != nil {
		return line, err
	}
	defer os.RemoveAll(dir)
	fix, err := b.setup(ctx, dir)
	if err != nil {
		return line, fmt.Errorf("set-up: %w", err)
	}
	ref, err := b.referenceAudit(ctx, fix)
	if err != nil {
		return line, err
	}
	baseData, baseStore := filepath.Join(dir, "base-data"), filepath.Join(dir, "base-store")
	if err := fix.baseData(baseData); err != nil {
		return line, err
	}
	if c := b.run(ctx, "-data", baseData, "-store", baseStore, "summary"); c.Err != nil {
		return line, c.Err
	}

	rep := &layerReport{Workload: workload, Counts: map[string]int64{
		"log_rows": int64(fix.rows), "explained": int64(ref.explained),
		"ndjson_bytes": ref.out.Bytes, "ndjson_crc32c": int64(ref.out.CRC),
	}}
	led.Layers = rep
	tr := newTracer()
	cli, k1Wall, err := b.probeCLI(ctx, tr, fix, ref, rep, &line, filepath.Join(dir, "obs-trace.ndjson"))
	if err != nil {
		return line, err
	}
	v, counts, err := probeLayers(ctx, tr, probeInput{
		scale: b.scale, seed: b.seed, workers: b.workers,
		store: fix.store, baseStore: baseStore, logCSV: filepath.Join(fix.data, logCSV),
		baseRows: fix.baseRows, patients: fix.patients,
	})
	line.Attempted++
	if err != nil {
		return line, fmt.Errorf("layer probes: %w", err)
	}
	for name, value := range cli {
		v[name] = value
	}
	for name, n := range counts {
		rep.Counts[name] = n
	}
	// What the K=1 child spends outside the three layers timed in-process:
	// NDJSON encode and write, process start, snapshot save.
	v["cli.encode_residual_s"] = k1Wall - v["store.open_ms"]/1e3 - v["core.mask_build_cold_ms"]/1e3 - v["core.stream_render_s"]
	rep.Values, rep.Spans = v, len(tr.spans)

	for _, d := range man.PerLayer {
		value, ok := v[d.Name]
		if !ok {
			return line, fmt.Errorf("per-layer metric %s of BENCHMARK.json was not measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: value, Unit: d.Unit}
	}
	if len(v) != len(man.PerLayer) {
		return line, fmt.Errorf("measured %d per-layer metrics, BENCHMARK.json lists %d", len(v), len(man.PerLayer))
	}
	if v["federate.retries"] != 0 || v["federate.shards_down"] != 0 {
		rep.Failures = append(rep.Failures, "federated audit retried or lost a shard with fault injection off")
		line.Failed++
	}
	line.Correct = line.Failed == 0
	printMetrics(stdout, workload+" (traced)", line.Metrics, man.PerLayer)
	return line, tr.writeNDJSON(tracePath)
}

var (
	retriesRE = regexp.MustCompile(`(?m)^\s*federate\.retry\.retries\s+(\d+)\s*$`)
	downRE    = regexp.MustCompile(`(?m)^\s*federate\.health\.down\s+(\d+)\s*$`)
)

// probeCLI drives the program under test for the cli layer: cold K=1 and
// K=4 audits interleaved, one K=1 audit with the program's own tracing on
// (obs overhead), and one mining run for its stats line.
func (b *bench) probeCLI(ctx context.Context, tr *tracer, fix *fixture, ref *reference, rep *layerReport, line *summaryLine, obsTrace string) (v map[string]float64, k1WallS float64, err error) {
	tr.newTrace()
	runOp := func(name string, o op) (child, bool) {
		end := tr.start("cli", name)
		c, err := b.runOp(ctx, fix, o)
		end()
		line.Attempted++
		if err != nil {
			line.Failed++
			rep.Failures = append(rep.Failures, err.Error())
		}
		return c, err == nil
	}
	var k1, k4 []child
	for i := 0; i < cliReps; i++ {
		if c, ok := runOp("audit_k1", auditOp(fix, ref, 1)); ok {
			k1 = append(k1, c)
		}
		o := auditOp(fix, ref, shards)
		o.args = append(o.args, "-v") // dumps the federation's retry and health counters on stderr
		if c, ok := runOp("audit_k4", o); ok {
			k4 = append(k4, c)
		}
	}
	o := auditOp(fix, ref, 1)
	o.args = append(o.args, "-trace", obsTrace)
	traced, tracedOK := runOp("audit_k1_obs_trace", o)
	var first uint32
	mineRes := &result{Counts: rep.Counts}
	_, mineOK := runOp("mine", mineOp(fix, mineRes, 0, &first))
	if len(k1) == 0 || len(k4) == 0 || !tracedOK || !mineOK {
		return nil, 0, fmt.Errorf("cli probes failed: %v", rep.Failures)
	}

	med := func(cs []child, f func(child) float64) float64 {
		vs := make([]float64, len(cs))
		for i, c := range cs {
			vs[i] = f(c)
		}
		return median(vs)
	}
	wall := func(c child) float64 { return c.Wall.Seconds() }
	cpu := func(c child) float64 { return c.CPU.Seconds() }
	util := func(c child) float64 { return c.CPU.Seconds() / (c.Wall.Seconds() * float64(b.workers)) }
	v = map[string]float64{
		"cli.audit_k1_ttfr_ms":        med(k1, func(c child) float64 { return ms(c.Out.FirstByte) }),
		"cli.audit_k1_cpu_s":          med(k1, cpu),
		"cli.audit_k1_cpu_util":       med(k1, util),
		"cli.audit_k4_cpu_s":          med(k4, cpu),
		"cli.audit_k4_cpu_util":       med(k4, util),
		"cli.ndjson_bytes_per_row":    float64(ref.out.Bytes) / float64(fix.rows),
		"federate.overhead_frac":      med(k4, wall)/med(k1, wall) - 1,
		"obs.trace_cpu_overhead_frac": cpu(traced)/med(k1, cpu) - 1,
	}
	for name, re := range map[string]*regexp.Regexp{"federate.retries": retriesRE, "federate.shards_down": downRE} {
		total := 0.0
		for _, c := range k4 {
			m := re.FindStringSubmatch(c.Stderr)
			if m == nil {
				return nil, 0, fmt.Errorf("audit -v printed no %s counter", name)
			}
			n, _ := strconv.Atoi(m[1])
			total += float64(n)
		}
		v[name] = total
	}
	for metric, count := range map[string]string{
		"mine.candidates": "mine_candidates", "mine.support_queries": "mine_support_queries",
		"mine.cache_hits": "mine_cache_hits", "mine.skipped": "mine_skipped", "mine.templates": "mine_templates",
	} {
		v[metric] = float64(rep.Counts[count])
	}
	return v, med(k1, wall), nil
}
