package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/obs"
)

// ObsFigure reports the observability-overhead experiment: the full
// hand-crafted-catalog batch audit run twice on fresh engines — once with
// every observability surface off (the default), once with timed metrics, an
// active span tracer, and per-op exec statistics all on — plus what the
// enabled run collected: span counts and the merged metrics registry. It is
// the repo's extension experiment for the observability layer, not a figure
// from the paper.
type ObsFigure struct {
	Err            string
	LogRows        int
	DisabledMillis float64
	EnabledMillis  float64
	Spans          int
	SpansDropped   int64
	Explained      float64
	Match          bool
	// Registry is the enabled run's merged metrics snapshot, flattened to
	// name -> value (histograms as name.count and name.sum).
	Registry map[string]int64
}

// Render prints the overhead comparison and the headline collected numbers.
func (f ObsFigure) Render() string {
	var b strings.Builder
	b.WriteString("Observability overhead: full catalog audit, obs off vs fully on\n")
	if f.Err != "" {
		fmt.Fprintf(&b, "  error: %s\n", f.Err)
		return b.String()
	}
	over := 0.0
	if f.DisabledMillis > 0 {
		over = 100 * (f.EnabledMillis - f.DisabledMillis) / f.DisabledMillis
	}
	fmt.Fprintf(&b, "  audited %d rows (explained %.3f)\n", f.LogRows, f.Explained)
	fmt.Fprintf(&b, "  disabled %8.1f ms\n", f.DisabledMillis)
	fmt.Fprintf(&b, "  enabled  %8.1f ms (%+.1f%%), %d spans collected (%d dropped), %d metrics\n",
		f.EnabledMillis, over, f.Spans, f.SpansDropped, len(f.Registry))
	if f.Match {
		b.WriteString("  reports identical across modes\n")
	} else {
		b.WriteString("  REPORTS DIVERGED — observability changed audit results\n")
	}
	return b.String()
}

// Metrics exposes the figure's numbers for the machine-readable benchmark
// snapshot (see cmd/ebabench).
func (f ObsFigure) Metrics() map[string]float64 {
	m := map[string]float64{
		"disabled_millis": f.DisabledMillis,
		"enabled_millis":  f.EnabledMillis,
		"spans":           float64(f.Spans),
		"spans_dropped":   float64(f.SpansDropped),
	}
	if f.DisabledMillis > 0 {
		m["overhead_pct"] = 100 * (f.EnabledMillis - f.DisabledMillis) / f.DisabledMillis
	}
	return m
}

// RegistrySnapshot exposes the enabled run's flattened metrics registry for
// the snapshot's per-experiment registry field (schema 3).
func (f ObsFigure) RegistrySnapshot() map[string]int64 { return f.Registry }

// flattenSnapshot renders an obs snapshot as name -> int64: counters and
// gauges by value, histograms as two derived entries.
func flattenSnapshot(snap map[string]obs.Metric) map[string]int64 {
	out := make(map[string]int64, len(snap))
	for name, m := range snap {
		if m.Kind == obs.KindHistogram {
			out[name+".count"] = m.Count
			out[name+".sum"] = m.Sum
			continue
		}
		out[name] = m.Value
	}
	return out
}

// Obs runs the full-catalog batch audit on a fresh auditor per mode and
// prices the observability layer end to end. The disabled run is the
// production default: registry counters still count (they are plain
// atomics), but nothing reads the clock, no spans publish, and no exec
// stats collect. The enabled run turns all three on. Both runs audit the
// same database from cold masks, and their reports must agree — the
// differential that observability observes without perturbing.
func Obs(env *Env) ObsFigure {
	f := ObsFigure{LogRows: env.FullLog.NumRows()}
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	workers := runtime.GOMAXPROCS(0)

	audit := func(execStats bool) (*core.Auditor, []core.AccessReport, float64, error) {
		a := core.NewAuditor(env.DS.DB, graph)
		a.AddTemplates(explain.Handcrafted(true, true).All()...)
		a.Evaluator().SetExecStats(execStats)
		t0 := time.Now()
		reports, err := a.ExplainAll(context.Background(), workers)
		return a, reports, float64(time.Since(t0).Microseconds()) / 1000, err
	}

	_, base, baseMillis, err := audit(false)
	if err != nil {
		f.Err = err.Error()
		return f
	}
	f.DisabledMillis = baseMillis

	obs.SetEnabled(true)
	tracer := obs.NewTracer(0)
	prev := obs.SetTracer(tracer)
	defer func() {
		obs.SetTracer(prev)
		obs.SetEnabled(false)
	}()
	a, traced, tracedMillis, err := audit(true)
	if err != nil {
		f.Err = err.Error()
		return f
	}
	f.EnabledMillis = tracedMillis
	f.Spans, _ = tracer.Drain(io.Discard)
	f.SpansDropped = tracer.Dropped()
	f.Registry = flattenSnapshot(a.MetricsSnapshot())

	if len(base) != len(traced) {
		f.Err = fmt.Sprintf("report counts diverged: %d vs %d", len(base), len(traced))
		return f
	}
	f.Match = true
	explained := 0
	for i := range base {
		if base[i].Explained() != traced[i].Explained() {
			f.Match = false
		}
		if traced[i].Explained() {
			explained++
		}
	}
	if f.LogRows > 0 {
		f.Explained = float64(explained) / float64(f.LogRows)
	}
	if len(base) == 0 {
		f.Err = "empty audit"
	}
	return f
}
