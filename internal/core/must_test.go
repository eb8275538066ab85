package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// The must* helpers unwrap the error-returning audit surface for tests that
// drive a healthy auditor: any error fails the test on the spot. They call
// t.Fatalf, so use them only from the test goroutine.

// collectReports gathers a StreamReports run into one slice in log-row
// order: nil and the error on failure, never a partly filled slice.
func collectReports(ctx context.Context, a *core.Auditor, parallelism int) ([]core.AccessReport, error) {
	var out []core.AccessReport
	if err := a.StreamReports(ctx, parallelism, func(rep core.AccessReport) error {
		out = append(out, rep)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func mustReports(t testing.TB, a *core.Auditor, parallelism int) []core.AccessReport {
	t.Helper()
	reps, err := collectReports(context.Background(), a, parallelism)
	if err != nil {
		t.Fatalf("StreamReports(j=%d): %v", parallelism, err)
	}
	return reps
}

func mustExplainRow(t testing.TB, a *core.Auditor, row, maxPerTemplate int) core.AccessReport {
	t.Helper()
	rep, err := a.ExplainRow(row, maxPerTemplate)
	if err != nil {
		t.Fatalf("ExplainRow(%d): %v", row, err)
	}
	return rep
}

func mustUnexplained(t testing.TB, a *core.Auditor, parallelism int) []int {
	t.Helper()
	rows, err := a.Unexplained(context.Background(), parallelism)
	if err != nil {
		t.Fatalf("Unexplained(j=%d): %v", parallelism, err)
	}
	return rows
}

func mustFraction(t testing.TB, a *core.Auditor, parallelism int) float64 {
	t.Helper()
	frac, err := a.ExplainedFraction(context.Background(), parallelism)
	if err != nil {
		t.Fatalf("ExplainedFraction(j=%d): %v", parallelism, err)
	}
	return frac
}

func mustPatientReport(t testing.TB, a *core.Auditor, patient relation.Value, maxPerTemplate int) []core.AccessReport {
	t.Helper()
	reps, err := a.PatientReport(patient, maxPerTemplate)
	if err != nil {
		t.Fatalf("PatientReport(%v): %v", patient, err)
	}
	return reps
}
