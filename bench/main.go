// Command bench is the repo's perf ledger: it builds the ebaudit CLI from
// source, drives it from outside through six workloads to take the
// end-to-end numbers, and — in a separate traced run — wraps calls into each
// layer's public functions in in-memory spans to take the per-layer numbers.
// BENCHMARK.json at the repo root names the command, the workloads and every
// metric; README.md says who each workload stands for and which layer should
// move which number.
//
//	bash bench/run.sh --workload audit-k1 --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload audit-k1 --seed 1 --seconds 10 --trace 1
//	bash bench/run.sh -aa --seed 1 --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef mirrors one entry of BENCHMARK.json's end_to_end or per_layer
// list; Bound is absent from per-layer entries.
type metricDef struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// manifest is the part of BENCHMARK.json the benchmark itself reads: the
// units it prints and the bounds -aa compares against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// summaryLine is the contract's last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger is bench/out/result.json: every sample, not only the medians.
type ledger struct {
	GitSHA     string       `json:"git_sha"`
	GoVersion  string       `json:"go_version"`
	NProc      int          `json:"nproc"`
	Workers    int          `json:"workers_j"`
	Scale      string       `json:"scale"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	SetupReps  int          `json:"setup_repetitions"`
	BuildS     float64      `json:"build_s"`
	Runs       []*result    `json:"runs,omitempty"`
	Layers     *layerReport `json:"layers,omitempty"`
	Mismatches []string     `json:"seed1_count_mismatches,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "dataset seed; the program under test receives only the generated inputs")
	seconds := fs.Float64("seconds", 10, "how long the workload is measured")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from outside the program; 1: per-layer metrics from the in-process traced run")
	scale := fs.String("scale", "small", "dataset scale passed to ebaudit: tiny, small or medium")
	aa := fs.Bool("aa", false, "run every workload twice on the same binary and fail if any end-to-end metric differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !*aa && !slices.Contains(workloadNames, *workload) {
		return fail(fmt.Errorf("-workload must be one of %s", strings.Join(workloadNames, ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	man, err := readManifest(root)
	if err != nil {
		return fail(err)
	}

	// An interrupt cancels ctx, which kills the running child; the deferred
	// cleanup then removes every temporary store and dataset.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{root: root, scale: *scale, seed: *seed, seconds: *seconds, workers: runtime.NumCPU()}
	defer b.cleanup()
	if err := b.prepare(ctx); err != nil {
		return fail(err)
	}
	led := &ledger{
		GitSHA: gitSHA(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Workers: b.workers,
		Scale: b.scale, Seed: b.seed, Seconds: b.seconds, SetupReps: setupReps, BuildS: b.buildS,
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}

	var line summaryLine
	switch {
	case *aa:
		line, err = b.runAA(ctx, man, led, stdout)
	case *trace == 1:
		line, err = b.runTraced(ctx, man, led, *workload, filepath.Join(outDir, "trace.ndjson"), stdout)
	default:
		var res *result
		if res, err = b.runWorkload(ctx, *workload); err == nil {
			led.Runs = append(led.Runs, res)
			line = res.summary(man)
			printMetrics(stdout, *workload, line.Metrics, man.EndToEnd)
		}
	}
	if err != nil {
		return fail(err)
	}
	for _, r := range led.Runs {
		led.Mismatches = append(led.Mismatches, seed1Mismatches(b.scale, b.seed, r.Workload, r.Counts)...)
		for _, f := range r.Failures {
			fmt.Fprintf(stderr, "bench: %s: FAILED operation: %s\n", r.Workload, f)
		}
	}
	if led.Layers != nil {
		led.Mismatches = append(led.Mismatches, seed1Mismatches(b.scale, b.seed, "traced", led.Layers.Counts)...)
		for _, f := range led.Layers.Failures {
			fmt.Fprintf(stderr, "bench: traced run: FAILED operation: %s\n", f)
		}
	}
	for _, m := range led.Mismatches {
		fmt.Fprintln(stderr, "bench: EXACT COUNT MISMATCH AT SEED 1:", m)
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), led); err != nil {
		return fail(err)
	}
	last, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", last)
	// A workload run that printed its result exits 0 even when operations
	// failed: the line says so (correct, failed) and the reader decides.
	// A/A mode is a self-check and fails loudly instead.
	if *aa && !line.Correct {
		return 1
	}
	return 0
}

// summary turns a workload's result into the contract's last line.
func (r *result) summary(man *manifest) summaryLine {
	line := summaryLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range man.EndToEnd {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			line.Correct = false
			continue
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return line
}

// printMetrics prints every metric by name with its unit, in BENCHMARK.json
// order.
func printMetrics(w io.Writer, title string, metrics map[string]metricValue, defs []metricDef) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, d := range defs {
		if m, ok := metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-36s %16.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// runAA is the A/A mode: every workload twice, back to back, on the same
// binary. It prints both sets side by side and reports incorrect when a
// pair of end-to-end values differs by more than the metric's bound or an
// exact count differs.
func (b *bench) runAA(ctx context.Context, man *manifest, led *ledger, stdout io.Writer) (summaryLine, error) {
	line := summaryLine{Correct: true, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "%-10s %-14s %14s %14s %8s %6s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	for _, name := range workloadNames {
		var pair [2]*result
		for i := range pair {
			res, err := b.runWorkload(ctx, name)
			if err != nil {
				return line, err
			}
			pair[i] = res
			led.Runs = append(led.Runs, res)
			line.Attempted += res.Attempted
			line.Failed += res.Failed
		}
		for _, d := range man.EndToEnd {
			va, vb := pair[0].Metrics[d.Name], pair[1].Metrics[d.Name]
			diff := math.Abs(vb-va) / va
			verdict := ""
			if !(diff <= d.Bound) {
				verdict = "  EXCEEDS BOUND"
				line.Correct = false
			}
			fmt.Fprintf(stdout, "%-10s %-14s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
			line.Metrics[name+"/"+d.Name] = metricValue{Value: diff, Unit: "frac"}
		}
		for key, ca := range pair[0].Counts {
			if cb := pair[1].Counts[key]; ca != cb {
				fmt.Fprintf(stdout, "%-10s exact count %s differs: %d vs %d\n", name, key, ca, cb)
				line.Correct = false
			}
		}
	}
	if line.Failed > 0 {
		line.Correct = false
	}
	return line, nil
}

func gitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
