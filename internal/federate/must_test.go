package federate_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// surface is the audit surface core.Auditor and federate.Federation share,
// so one set of helpers (and one error table) serves both.
type surface interface {
	StreamReports(ctx context.Context, parallelism int, fn func(core.AccessReport) error) error
	Unexplained(ctx context.Context, parallelism int) ([]int, error)
	ExplainedFraction(ctx context.Context, parallelism int) (float64, error)
	PatientReport(patient relation.Value, maxPerTemplate int) ([]core.AccessReport, error)
}

// The must* helpers unwrap the surface for tests that drive a healthy
// engine: any error fails the test on the spot (test goroutine only).

// collectReports gathers a StreamReports run into one slice in log order:
// nil and the error on failure, never a partly filled slice.
func collectReports(ctx context.Context, e surface, parallelism int) ([]core.AccessReport, error) {
	var out []core.AccessReport
	if err := e.StreamReports(ctx, parallelism, func(rep core.AccessReport) error {
		out = append(out, rep)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func mustReports(t testing.TB, e surface, parallelism int) []core.AccessReport {
	t.Helper()
	reps, err := collectReports(context.Background(), e, parallelism)
	if err != nil {
		t.Fatalf("StreamReports(j=%d): %v", parallelism, err)
	}
	return reps
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
