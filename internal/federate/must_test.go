package federate_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// surface is the audit surface core.Auditor and federate.Federation share,
// so one set of helpers (and one error table) serves both.
type surface interface {
	StreamNDJSON(ctx context.Context, parallelism int, emit func(buf []byte, rows, explained int) error) error
	Unexplained(ctx context.Context, parallelism int) ([]int, error)
	ExplainedFraction(ctx context.Context, parallelism int) (float64, error)
	PatientReport(patient relation.Value, maxPerTemplate int) ([]core.AccessReport, error)
}

// collectNDJSON concatenates e's StreamNDJSON chunks, checking that each is
// whole lines, and returns the bytes with the row and explained totals.
func collectNDJSON(t testing.TB, e surface, j int) (out []byte, rows, explained int, err error) {
	t.Helper()
	err = e.StreamNDJSON(context.Background(), j, func(buf []byte, r, x int) error {
		if r <= 0 || bytes.Count(buf, []byte("\n")) != r || buf[len(buf)-1] != '\n' {
			t.Fatalf("chunk of %d bytes is not %d whole lines", len(buf), r)
		}
		out = append(out, buf...)
		rows += r
		explained += x
		return nil
	})
	return out, rows, explained, err
}

// assertSameNDJSON fails the test unless got and want are the same bytes,
// naming the first line they differ on.
func assertSameNDJSON(t testing.TB, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s: line %d differs:\n got %s\nwant %s", label, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d bytes in %d lines, want %d bytes in %d lines", label, len(got), len(g)-1, len(want), len(w)-1)
}

// The must* helpers unwrap the surface for tests that drive a healthy
// engine: any error fails the test on the spot (test goroutine only).

func mustNDJSON(t testing.TB, e surface, parallelism int) []byte {
	t.Helper()
	out, _, _, err := collectNDJSON(t, e, parallelism)
	if err != nil {
		t.Fatalf("StreamNDJSON(j=%d): %v", parallelism, err)
	}
	return out
}

func mustUnexplained(t testing.TB, e surface, parallelism int) []int {
	t.Helper()
	rows, err := e.Unexplained(context.Background(), parallelism)
	if err != nil {
		t.Fatalf("Unexplained(j=%d): %v", parallelism, err)
	}
	return rows
}

func mustFraction(t testing.TB, e surface, parallelism int) float64 {
	t.Helper()
	frac, err := e.ExplainedFraction(context.Background(), parallelism)
	if err != nil {
		t.Fatalf("ExplainedFraction(j=%d): %v", parallelism, err)
	}
	return frac
}

func mustPatientReport(t testing.TB, e surface, patient relation.Value, maxPerTemplate int) []core.AccessReport {
	t.Helper()
	reps, err := e.PatientReport(patient, maxPerTemplate)
	if err != nil {
		t.Fatalf("PatientReport(%v): %v", patient, err)
	}
	return reps
}
