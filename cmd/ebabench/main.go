// Command ebabench regenerates every table and figure of the paper's
// evaluation over the synthetic CareWeb dataset and prints them as text.
//
// Usage:
//
//	ebabench [-scale tiny|small|medium] [-seed N] [-experiment name]
//
// -experiment names one table or figure ("ebabench -help" lists them) or
// "all" (the default).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/ehr"
	"repro/internal/experiments"
)

type renderer interface{ Render() string }

// experimentList is every experiment in the order "all" runs them; the
// -experiment name check and its help text are read off it.
var experimentList = []struct {
	name string
	run  func(*experiments.Env) renderer
}{
	{"fig6", func(e *experiments.Env) renderer { return experiments.Figure6(e) }},
	{"fig7", func(e *experiments.Env) renderer { return experiments.Figure7(e) }},
	{"fig8", func(e *experiments.Env) renderer { return experiments.Figure8(e) }},
	{"fig9", func(e *experiments.Env) renderer { return experiments.Figure9(e) }},
	{"fig10-11", func(e *experiments.Env) renderer { return experiments.Figure10_11(e, 2) }},
	{"fig12", func(e *experiments.Env) renderer { return experiments.Figure12(e) }},
	{"fig12-decorated", func(e *experiments.Env) renderer { return experiments.Figure12Decorated(e) }},
	{"fig13", func(e *experiments.Env) renderer { return experiments.Figure13(e) }},
	{"fig14", func(e *experiments.Env) renderer { return experiments.Figure14(e) }},
	{"table1", func(e *experiments.Env) renderer { return experiments.Table1(e) }},
	{"headline", func(e *experiments.Env) renderer { return experiments.Headline(e) }},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		os.Exit(2)
	}
}

// errUsage marks command-line misuse (exit status 2, message already
// printed).
var errUsage = errors.New("usage error")

// run is the testable entry point: it parses argv, checks the scale and
// experiment names before building any dataset, then prints each selected
// experiment with its wall time.
func run(argv []string, stdout, stderr io.Writer) error {
	names := make([]string, len(experimentList))
	for i, x := range experimentList {
		names[i] = x.name
	}
	fs := flag.NewFlagSet("ebabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "small", "dataset scale: tiny, small, or medium")
	seed := fs.Int64("seed", 1, "generator seed")
	which := fs.String("experiment", "all", "experiment to run: "+strings.Join(names, ", ")+", or all")
	if err := fs.Parse(argv); err != nil {
		return errUsage
	}

	cfg := experiments.Default()
	switch *scale {
	case "tiny":
		cfg = experiments.Tiny()
	case "small":
		// default
	case "medium":
		cfg.EHR = ehr.Medium()
	default:
		fmt.Fprintf(stderr, "ebabench: unknown scale %q\n", *scale)
		return errUsage
	}
	if *which != "all" && !slices.Contains(names, *which) {
		fmt.Fprintf(stderr, "ebabench: unknown experiment %q\n", *which)
		return errUsage
	}
	cfg.EHR.Seed = *seed
	cfg.TrainEndDay = cfg.EHR.Days - 2

	start := time.Now()
	env := experiments.Prepare(cfg)
	fmt.Fprintf(stdout, "prepared %s dataset in %v: %d accesses, %d patients, %d users\n\n",
		*scale, time.Since(start).Round(time.Millisecond),
		env.FullLog.NumRows(), len(env.DS.Patients), len(env.DS.Users))

	for _, x := range experimentList {
		if *which != "all" && *which != x.name {
			continue
		}
		t0 := time.Now()
		fmt.Fprint(stdout, x.run(env).Render())
		fmt.Fprintf(stdout, "  [%s took %v]\n\n", x.name, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}
