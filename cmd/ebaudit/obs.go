// Observability surfacing for the CLI: the -metrics-addr live endpoint
// (Prometheus text, expvar-style JSON, pprof), the audit -trace NDJSON span
// sink, the audit -explain per-template plan+exec report, and the -v metrics
// dump. Everything here reads the same internal/obs registries the engine
// layers write; nothing below this file knows the CLI exists.
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/query"
)

// serveMetrics binds addr and serves the live observability endpoints for
// the rest of the process's life: /metrics (Prometheus text format),
// /debug/vars (expvar-style JSON), and /debug/pprof/* (the standard
// profiling handlers). It returns the bound address so ":0" requests can
// report the kernel-chosen port.
func (a *app) serveMetrics(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, a.eng.MetricsSnapshot())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = obs.WriteJSON(w, a.eng.MetricsSnapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("-metrics-addr %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // endpoint lives until the process exits
	return ln.Addr().String(), nil
}

// dumpMetrics writes a registry snapshot as one "name value" line per
// metric (histograms as count/sum/mean), sorted by name — the -v teaching
// view of what /metrics would serve.
func dumpMetrics(w io.Writer, snap map[string]obs.Metric) {
	fmt.Fprintln(w, "metrics:")
	for _, name := range obs.SortedNames(snap) {
		m := snap[name]
		if m.Kind == obs.KindHistogram {
			mean := int64(0)
			if m.Count > 0 {
				mean = m.Sum / m.Count
			}
			fmt.Fprintf(w, "  %-40s count=%d sum=%d mean=%d\n", name, m.Count, m.Sum, mean)
			continue
		}
		fmt.Fprintf(w, "  %-40s %d\n", name, m.Value)
	}
}

// startTrace enables observability, installs a fresh span tracer, and
// returns the finisher that restores the previous tracer, drains the
// collected spans to path as NDJSON, and reports the span and drop counts
// on stderr. The ring is bounded: a run that out-produces it drops spans
// (counted, reported) rather than blocking the audit.
func startTrace(path string, stderr io.Writer) (finish func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-trace: %w", err)
	}
	obs.SetEnabled(true)
	tr := obs.NewTracer(0)
	prev := obs.SetTracer(tr)
	return func() error {
		obs.SetTracer(prev)
		n, derr := tr.Drain(f)
		cerr := f.Close()
		fmt.Fprintf(stderr, "wrote %d spans to %s (%d dropped)\n", n, path, tr.Dropped())
		if derr != nil {
			return fmt.Errorf("-trace: draining spans: %w", derr)
		}
		return cerr
	}, nil
}

// printExplainReport renders the EXPLAIN ANALYZE view of the audit just
// run: for every registered template whose evaluation goes through the
// compiled-plan cache, the per-op execution counters the audit accumulated
// (ExecTrace). A decorated template evaluates outside the plan cache and
// gets a note instead of a fabricated zero trace.
func (a *app) printExplainReport(w io.Writer) {
	ev := a.auditor.Evaluator()
	for _, t := range a.auditor.Templates() {
		tpl := t.(*explain.PathTemplate) // Template's only implementation
		if len(tpl.Decorations) > 0 {
			fmt.Fprintf(w, "template %s: evaluates outside the plan cache (decorated path); no exec trace\n", t.Name())
			continue
		}
		pp := ev.Prepare(tpl.Path)
		printPlanExec(w, t.Name(), pp.ExecTrace())
	}
}

// printPlanExec renders one template's per-op execution counters, in the
// path's declared hop order. Counter semantics: rows-in is values entering
// the op, rows-out values that qualified, postings the pair-list entries
// consumed (the same events a query cursor's postings counter counts,
// attributed per op), memo the sub-questions the walk's memo answered
// without walking.
func printPlanExec(w io.Writer, name string, tr query.ExecTrace) {
	fmt.Fprintf(w, "template %s: plan of %d ops\n", name, len(tr.Ops))
	if len(tr.Ops) == 0 {
		fmt.Fprintln(w, "  (no execution recorded)")
		return
	}
	fmt.Fprintf(w, "  %-3s %-7s %-28s %12s %12s %12s %10s\n",
		"op", "kind", "table", "rows-in", "rows-out", "postings", "memo")
	for i, o := range tr.Ops {
		table := o.Table
		if table == "" {
			table = "-"
		}
		fmt.Fprintf(w, "  %-3d %-7s %-28s %12d %12d %12d %10d\n",
			i, o.Kind, table, o.RowsIn, o.RowsOut, o.Postings, o.MemoHits)
	}
}
