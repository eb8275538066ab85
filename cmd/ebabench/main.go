// Command ebabench regenerates every table and figure of the paper's
// evaluation over the synthetic CareWeb dataset and prints them as text.
//
// Usage:
//
//	ebabench [-scale tiny|small|medium] [-seed N] [-experiment name] [-json]
//
// Experiments: fig6 fig7 fig8 fig9 fig10-11 fig12 fig12-decorated fig13
// fig14 table1 headline startup obs, or "all" (default).
//
// With -json, a machine-readable BENCH_<n>.json snapshot of the run — the
// dataset shape, per-experiment wall times, any experiment-reported metrics,
// and (schema 3) any experiment-reported metrics-registry snapshot — is
// written to the working directory, numbered one past the highest existing
// snapshot. The committed BENCH_*.json files form the repo's performance
// trajectory; CI uploads each run's snapshot as an artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/ehr"
	"repro/internal/experiments"
)

// benchSnapshot is the schema of one BENCH_<n>.json performance snapshot.
type benchSnapshot struct {
	Schema        int               `json:"schema"`
	Timestamp     string            `json:"timestamp"`
	GoVersion     string            `json:"go_version"`
	MaxProcs      int               `json:"gomaxprocs"`
	Scale         string            `json:"scale"`
	Seed          int64             `json:"seed"`
	Accesses      int               `json:"accesses"`
	Patients      int               `json:"patients"`
	Users         int               `json:"users"`
	PrepareMillis int64             `json:"prepare_millis"`
	Experiments   []benchExperiment `json:"experiments"`
}

// benchExperiment is one experiment's wall time within a snapshot, plus any
// named metrics the experiment itself reports (schema 2; experiments whose
// figure type implements Metrics() map[string]float64) and any flattened
// metrics-registry snapshot it reports (schema 3; figure types implementing
// RegistrySnapshot() map[string]int64 — see the obs experiment).
type benchExperiment struct {
	Name     string             `json:"name"`
	Millis   int64              `json:"millis"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Registry map[string]int64   `json:"registry,omitempty"`
}

func main() {
	scale := flag.String("scale", "small", "dataset scale: tiny, small, or medium")
	seed := flag.Int64("seed", 1, "generator seed")
	which := flag.String("experiment", "all", "experiment to run (fig6..fig14, table1, headline, startup, all)")
	jsonOut := flag.Bool("json", false, "write a BENCH_<n>.json snapshot of this run to the working directory")
	flag.Parse()

	cfg := experiments.Default()
	switch *scale {
	case "tiny":
		cfg = experiments.Tiny()
	case "small":
		// default
	case "medium":
		cfg.EHR = ehr.Medium()
	default:
		fmt.Fprintf(os.Stderr, "ebabench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg.EHR.Seed = *seed
	cfg.TrainEndDay = cfg.EHR.Days - 2

	start := time.Now()
	env := experiments.Prepare(cfg)
	prepared := time.Since(start)
	fmt.Printf("prepared %s dataset in %v: %d accesses, %d patients, %d users\n\n",
		*scale, prepared.Round(time.Millisecond),
		env.FullLog.NumRows(), len(env.DS.Patients), len(env.DS.Users))

	snap := benchSnapshot{
		Schema:        3,
		Timestamp:     start.UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		MaxProcs:      runtime.GOMAXPROCS(0),
		Scale:         *scale,
		Seed:          *seed,
		Accesses:      env.FullLog.NumRows(),
		Patients:      len(env.DS.Patients),
		Users:         len(env.DS.Users),
		PrepareMillis: prepared.Milliseconds(),
	}

	type renderer interface{ Render() string }
	type metricser interface{ Metrics() map[string]float64 }
	type registrar interface{ RegistrySnapshot() map[string]int64 }
	run := func(name string, f func() renderer) {
		if *which != "all" && *which != name {
			return
		}
		t0 := time.Now()
		r := f()
		out := r.Render()
		took := time.Since(t0)
		fmt.Print(out)
		fmt.Printf("  [%s took %v]\n\n", name, took.Round(time.Millisecond))
		exp := benchExperiment{Name: name, Millis: took.Milliseconds()}
		if m, ok := r.(metricser); ok {
			exp.Metrics = m.Metrics()
		}
		if reg, ok := r.(registrar); ok {
			exp.Registry = reg.RegistrySnapshot()
		}
		snap.Experiments = append(snap.Experiments, exp)
	}

	run("fig6", func() renderer { return experiments.Figure6(env) })
	run("fig7", func() renderer { return experiments.Figure7(env) })
	run("fig8", func() renderer { return experiments.Figure8(env) })
	run("fig9", func() renderer { return experiments.Figure9(env) })
	run("fig10-11", func() renderer { return experiments.Figure10_11(env, 2) })
	run("fig12", func() renderer { return experiments.Figure12(env) })
	run("fig12-decorated", func() renderer { return experiments.Figure12Decorated(env) })
	run("fig13", func() renderer { return experiments.Figure13(env) })
	run("fig14", func() renderer { return experiments.Figure14(env) })
	run("table1", func() renderer { return experiments.Table1(env) })
	run("headline", func() renderer { return experiments.Headline(env) })
	run("startup", func() renderer { return experiments.Startup(env) })
	run("obs", func() renderer { return experiments.Obs(env) })

	if *which != "all" && !validExperiment(*which) {
		fmt.Fprintf(os.Stderr, "ebabench: unknown experiment %q\n", *which)
		os.Exit(2)
	}

	if *jsonOut {
		path, err := writeSnapshot(".", snap)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ebabench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

// benchFileRE matches committed snapshot names; the captured group is the
// sequence number.
var benchFileRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// writeSnapshot writes snap to dir as BENCH_<n>.json, numbering it one past
// the highest snapshot already present, and returns the path written.
func writeSnapshot(dir string, snap benchSnapshot) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	next := 1
	for _, e := range entries {
		m := benchFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, err := strconv.Atoi(m[1]); err == nil && n >= next {
			next = n + 1
		}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func validExperiment(name string) bool {
	for _, n := range strings.Split("fig6 fig7 fig8 fig9 fig10-11 fig12 fig12-decorated fig13 fig14 table1 headline startup obs", " ") {
		if n == name {
			return true
		}
	}
	return false
}
