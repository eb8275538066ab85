package core_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/relation"
)

// TestStreamReportsMatchesExplainAll is the streaming pipeline's
// differential oracle: on three differently seeded datasets and at every
// parallelism level, the streamed report sequence must be byte-for-byte
// identical — order and content — to the materialized ExplainAll slice and
// to a sequential ExplainRow loop.
func TestStreamReportsMatchesExplainAll(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		a := buildSeededAuditor(t, seed)
		n := a.Log().NumRows()
		want := make([]core.AccessReport, n)
		for r := 0; r < n; r++ {
			want[r] = mustExplainRow(t, a, r, 0)
		}
		for _, par := range []int{1, 2, 4, 8} {
			got := make([]core.AccessReport, 0, n)
			if err := a.StreamReports(ctx, par, func(rep core.AccessReport) error {
				got = append(got, rep)
				return nil
			}); err != nil {
				t.Fatalf("seed %d parallelism %d: StreamReports err = %v", seed, par, err)
			}
			if !reflect.DeepEqual(got, want) {
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Fatalf("seed %d parallelism %d: streamed report %d differs:\n got %+v\nwant %+v",
							seed, par, r, got[r], want[r])
					}
				}
				t.Fatalf("seed %d parallelism %d: streamed reports differ", seed, par)
			}
			if mat := mustExplainAll(t, a, par); !reflect.DeepEqual(mat, got) {
				t.Fatalf("seed %d parallelism %d: ExplainAll differs from its own stream", seed, par)
			}
		}
	}
}

// TestStreamReportsConsumerError: an error returned by fn aborts the stream
// immediately and is returned verbatim; fn has seen a clean prefix.
func TestStreamReportsConsumerError(t *testing.T) {
	a := buildSeededAuditor(t, 1)
	want := mustExplainAll(t, a, 4)
	boom := errors.New("sink failed")
	var got []core.AccessReport
	err := a.StreamReports(context.Background(), 4, func(rep core.AccessReport) error {
		got = append(got, rep)
		if len(got) == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("StreamReports err = %v, want sink error", err)
	}
	if len(got) != 7 || !reflect.DeepEqual(got, want[:7]) {
		t.Fatalf("consumer saw %d reports (prefix equal: %v), want the first 7",
			len(got), reflect.DeepEqual(got, want[:len(got)]))
	}
}

// TestStreamReportsCancelPrompt cancels the context from inside the consumer
// after the first report: the stream must stop within a couple of chunks —
// workers poll ctx between claimed shards — rather than draining the rest of
// the log, and StreamReports must return ctx.Err().
func TestStreamReportsCancelPrompt(t *testing.T) {
	a := buildSeededAuditor(t, 1)
	n := a.Log().NumRows()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	err := a.StreamReports(ctx, 4, func(core.AccessReport) error {
		seen++
		if seen == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StreamReports err = %v, want context.Canceled", err)
	}
	// The emitter finishes the chunk it is delivering, then stops; anything
	// close to the full log means cancellation was ignored.
	if seen > 2*64 || seen >= n {
		t.Errorf("consumer saw %d of %d reports after cancellation", seen, n)
	}
}

// emptyLogAuditor builds an auditor over a database whose Log (and event
// tables) exist but hold zero rows, with one real catalog template
// registered — the smallest configuration where an unguarded
// explained/total division would produce NaN.
func emptyLogAuditor() *core.Auditor {
	db := relation.NewDatabase()
	db.AddTable(relation.NewTable("Log", "Lid", "Date", "User", "Patient"))
	db.AddTable(relation.NewTable("Appointments", "Patient", "Date", "Doctor"))
	db.AddTable(relation.NewTable("UserMapping", "CaregiverID", "AuditID"))
	a := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()))
	a.AddTemplates(explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment"))
	return a
}

// TestExplainedFractionEmptyLog is the regression test for the empty-log
// division: the fraction must be 0 — never NaN — at every parallelism, and
// the other batch methods must degrade cleanly.
func TestExplainedFractionEmptyLog(t *testing.T) {
	ctx := context.Background()
	a := emptyLogAuditor()

	for _, par := range []int{1, 4} {
		if f := mustFraction(t, a, par); f != 0 || math.IsNaN(f) {
			t.Errorf("ExplainedFraction(%d) on empty log = %v, want 0", par, f)
		}
	}
	if got := mustExplainAll(t, a, 4); got == nil || len(got) != 0 {
		t.Errorf("ExplainAll on empty log = %v, want empty non-nil slice", got)
	}
	if got := mustUnexplained(t, a, 4); len(got) != 0 {
		t.Errorf("Unexplained on empty log = %v, want none", got)
	}
	if err := a.StreamReports(ctx, 4, func(core.AccessReport) error {
		t.Error("report emitted for empty log")
		return nil
	}); err != nil {
		t.Errorf("StreamReports on empty log err = %v", err)
	}
}
