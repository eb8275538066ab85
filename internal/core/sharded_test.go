package core_test

import (
	"reflect"
	"testing"

	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// TestMaskShardingDifferential verifies that masks computed with
// intra-template sharding (many workers per template) classify every row
// exactly as a single-worker computation: the unexplained shortlist and the
// explained fraction must be identical on three dataset seeds, with the
// mask cache reset between runs so each parallelism level recomputes its
// own masks from scratch.
func TestMaskShardingDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := buildSeededAuditor(t, seed)
		a.ResetMaskCache()
		seqRows := mustUnexplained(t, a, 1)
		seqFrac := mustFraction(t, a, 1)
		for _, par := range []int{2, 5, 8} {
			a.ResetMaskCache()
			rows := mustUnexplained(t, a, par)
			if !reflect.DeepEqual(rows, seqRows) {
				t.Errorf("seed %d: unexplained rows differ at parallelism %d", seed, par)
			}
			if frac := mustFraction(t, a, par); frac != seqFrac {
				t.Errorf("seed %d: fraction %v != %v at parallelism %d", seed, frac, seqFrac, par)
			}
		}
	}
}

// TestResetMaskCacheRecomputes pins ResetMaskCache: dropping the cache must
// not change any result, only force recomputation.
func TestResetMaskCacheRecomputes(t *testing.T) {
	a := buildSeededAuditor(t, 1)
	before := mustUnexplained(t, a, 4)
	a.ResetMaskCache()
	after := mustUnexplained(t, a, 4)
	if !reflect.DeepEqual(before, after) {
		t.Error("results changed across ResetMaskCache")
	}
}

// TestPatientReportMatchesScan pins the indexed PatientReport to the
// reference full-scan implementation it replaced, for every patient in the
// log (including order of the reports).
func TestPatientReportMatchesScan(t *testing.T) {
	_, a := buildAuditor(t)
	log := a.Log()
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)

	for _, pv := range distinctValues(log, pathmodel.LogPatientColumn) {
		got := mustPatientReport(t, a, pv, 1)
		k := 0
		for r := 0; r < log.NumRows(); r++ {
			if log.Row(r)[pi] != pv {
				continue
			}
			want := mustExplainRow(t, a, r, 1)
			if k >= len(got) {
				t.Fatalf("patient %v: report truncated at %d entries", pv, len(got))
			}
			if !reflect.DeepEqual(got[k], want) {
				t.Fatalf("patient %v: report %d differs from scan reference", pv, k)
			}
			k++
		}
		if k != len(got) {
			t.Errorf("patient %v: %d reports, scan found %d", pv, len(got), k)
		}
	}
	if got := mustPatientReport(t, a, relation.Int(-987654), 1); len(got) != 0 {
		t.Errorf("unknown patient returned %d reports", len(got))
	}
}
