package core_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/relation"
)

// widenedAuditor builds a Tiny hospital of the given seed, with its Log
// rows shuffled when shuffle is set (a pair then recurs far apart in the
// stream), and an auditor over it with the full catalog plus templates
// whose text is not a function of (template, patient, user) alone: the
// decorated repeat-access and depth-restricted group templates, a path
// template whose description reads the audited row's Date and Lid, and one
// with no description (the generic rendering).
func widenedAuditor(t *testing.T, seed int64, shuffle bool) *core.Auditor {
	t.Helper()
	cfg := ehr.Tiny()
	cfg.Seed = seed
	ds := ehr.Generate(cfg)
	if shuffle {
		log := ds.DB.MustTable("Log")
		perm := rand.New(rand.NewSource(seed)).Perm(log.NumRows())
		shuffled := relation.NewTable(log.Name(), log.Columns()...)
		for _, r := range perm {
			shuffled.Append(log.Row(r)...)
		}
		ds.DB.AddTable(shuffled)
	}
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	a.BuildGroups(core.GroupsOptions{})
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	a.AddTemplates(
		datedRepeatAccess(),
		explain.DepthRestrictedGroupTemplate("appt-group-depth1", "Appointments", "an appointment", 1),
		explain.NewPathTemplate("appt-row-date-lid",
			explain.WithDrTemplate("appt", "Appointments", "an appointment").Path,
			"access [L.Lid] on [L.Date] by [L.User|user] to [L.Patient|patient] follows the appointment of [Appointments1.Date]"),
		explain.NewPathTemplate("appt-group-generic",
			explain.GroupTemplate("appt-group", "Appointments", "an appointment").Path, ""),
	)
	return a
}

// TestStreamReportsMatchesExplainAll is the streaming pipeline's
// differential oracle: on Tiny seeds 1-3 and a row-shuffled log, over the
// widened catalog, at every parallelism level, the streamed report sequence
// must be byte-for-byte identical — order and content — to a sequential
// ExplainRow loop, and StreamNDJSON to the loop's encoding. A stream's
// cursors share an instance-binding memo keyed by (path, patient, user); the
// templates that read more of the row than that pair must still render each
// row from its own values.
func TestStreamReportsMatchesExplainAll(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		seed    int64
		shuffle bool
	}{{1, false}, {2, false}, {3, false}, {1, true}}
	for _, c := range cases {
		a := widenedAuditor(t, c.seed, c.shuffle)
		n := a.Log().NumRows()
		want := make([]core.AccessReport, n)
		var wantNDJSON []byte
		for r := 0; r < n; r++ {
			want[r] = mustExplainRow(t, a, r, 0)
			wantNDJSON = core.AppendNDJSON(wantNDJSON, want[r])
		}
		hits := a.Evaluator().Metrics().Counter("query.instances.memo_hits")
		for _, par := range []int{1, 2, 4, 8} {
			before := hits.Value()
			got := make([]core.AccessReport, 0, n)
			if err := a.StreamReports(ctx, par, func(rep core.AccessReport) error {
				got = append(got, rep)
				return nil
			}); err != nil {
				t.Fatalf("seed %d shuffle %v parallelism %d: StreamReports err = %v", c.seed, c.shuffle, par, err)
			}
			if !reflect.DeepEqual(got, want) {
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Fatalf("seed %d shuffle %v parallelism %d: streamed report %d differs:\n got %+v\nwant %+v",
							c.seed, c.shuffle, par, r, got[r], want[r])
					}
				}
				t.Fatalf("seed %d shuffle %v parallelism %d: streamed reports differ", c.seed, c.shuffle, par)
			}
			if hits.Value() == before {
				t.Fatalf("seed %d shuffle %v parallelism %d: the stream never hit its instance memo", c.seed, c.shuffle, par)
			}
			var enc []byte
			if err := a.StreamNDJSON(ctx, par, func(buf []byte, _, _ int) error {
				enc = append(enc, buf...)
				return nil
			}); err != nil {
				t.Fatalf("seed %d shuffle %v parallelism %d: StreamNDJSON: %v", c.seed, c.shuffle, par, err)
			}
			if !bytes.Equal(enc, wantNDJSON) {
				t.Fatalf("seed %d shuffle %v parallelism %d: StreamNDJSON differs from the encoded ExplainRow loop", c.seed, c.shuffle, par)
			}
		}
	}
}

// TestStreamReportsConsumerError: an error returned by fn aborts the stream
// immediately and is returned verbatim; fn has seen a clean prefix.
func TestStreamReportsConsumerError(t *testing.T) {
	a := buildSeededAuditor(t, 1)
	want := mustReports(t, a, 4)
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
