package core_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
)

// buildSeededAuditor builds a fully configured auditor (groups plus the
// complete hand-crafted catalog) over a Tiny hospital generated with the
// given seed.
func buildSeededAuditor(t testing.TB, seed int64) *core.Auditor {
	t.Helper()
	cfg := ehr.Tiny()
	cfg.Seed = seed
	ds := ehr.Generate(cfg)
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	a.BuildGroups(core.GroupsOptions{})
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	return a
}

// TestExplainAllMatchesSequential is the batch engine's differential oracle:
// on three differently seeded datasets, StreamReports at every parallelism
// level must produce reports byte-for-byte identical to an ExplainRow loop,
// and Unexplained/ExplainedFraction at every parallelism level must match
// their one-worker results exactly.
func TestExplainAllMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := buildSeededAuditor(t, seed)
		n := a.Log().NumRows()
		if n == 0 {
			t.Fatalf("seed %d: empty log", seed)
		}

		want := make([]core.AccessReport, n)
		for r := 0; r < n; r++ {
			want[r] = mustExplainRow(t, a, r, 0)
		}
		wantUnexplained := mustUnexplained(t, a, 1)
		wantFraction := mustFraction(t, a, 1)

		for _, par := range []int{1, 2, 4, 8} {
			got := mustReports(t, a, par)
			if !reflect.DeepEqual(got, want) {
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Fatalf("seed %d parallelism %d: report for row %d differs:\n got %+v\nwant %+v",
							seed, par, r, got[r], want[r])
					}
				}
				t.Fatalf("seed %d parallelism %d: reports differ", seed, par)
			}
			if gotU := mustUnexplained(t, a, par); !reflect.DeepEqual(gotU, wantUnexplained) {
				t.Errorf("seed %d parallelism %d: Unexplained = %v, want %v",
					seed, par, gotU, wantUnexplained)
			}
			if gotF := mustFraction(t, a, par); gotF != wantFraction {
				t.Errorf("seed %d parallelism %d: ExplainedFraction = %v, want %v",
					seed, par, gotF, wantFraction)
			}
		}
	}
}

// TestExplainAllColdMasks runs the batch path on a freshly configured
// auditor whose mask cache is empty, so the concurrent mask computation
// (rather than only the per-row sharding) is exercised, then checks the
// result against a second, identically seeded auditor evaluated
// sequentially.
func TestExplainAllColdMasks(t *testing.T) {
	batch := buildSeededAuditor(t, 7)
	seq := buildSeededAuditor(t, 7)

	got := mustReports(t, batch, 4)
	n := seq.Log().NumRows()
	if len(got) != n {
		t.Fatalf("StreamReports emitted %d reports, want %d", len(got), n)
	}
	for r := 0; r < n; r++ {
		want := mustExplainRow(t, seq, r, 0)
		if !reflect.DeepEqual(got[r], want) {
			t.Fatalf("row %d: batch report %+v != sequential %+v", r, got[r], want)
		}
	}
}

// TestExplainAllCancelled: a cancelled context is an error from every batch
// method — never a nil or zero result that reads as "nothing unexplained" —
// whether the masks still have to be built or are already cached.
func TestExplainAllCancelled(t *testing.T) {
	a := buildSeededAuditor(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, state := range []string{"cold", "warm"} {
		if got, err := collectReports(ctx, a, 4); !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("%s: StreamReports with cancelled ctx = (%d reports, %v), want (none, context.Canceled)", state, len(got), err)
		}
		if got, err := a.Unexplained(ctx, 4); !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("%s: Unexplained with cancelled ctx = (%v, %v), want (nil, context.Canceled)", state, got, err)
		}
		if got, err := a.ExplainedFraction(ctx, 4); !errors.Is(err, context.Canceled) || got != 0 {
			t.Errorf("%s: ExplainedFraction with cancelled ctx = (%v, %v), want (0, context.Canceled)", state, got, err)
		}
		if err := a.Refresh(context.Background(), 4); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExplainAllSharedAuditorRace exercises the advertised concurrency
// contract under the race detector: several goroutines run the batch
// methods at parallelism 8 over one shared Auditor — starting from a cold
// mask cache so concurrent mask computation and lazy table-index
// construction race against each other — and every run must agree with the
// sequential baseline.
func TestExplainAllSharedAuditorRace(t *testing.T) {
	a := buildSeededAuditor(t, 5)
	baseline := buildSeededAuditor(t, 5)
	n := baseline.Log().NumRows()
	want := make([]core.AccessReport, n)
	for r := 0; r < n; r++ {
		want[r] = mustExplainRow(t, baseline, r, 0)
	}
	wantUnexplained := mustUnexplained(t, baseline, 1)
	wantFraction := mustFraction(t, baseline, 1)

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := collectReports(ctx, a, 8); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent StreamReports diverged from sequential baseline (err %v)", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := a.Unexplained(ctx, 8); err != nil || !reflect.DeepEqual(got, wantUnexplained) {
				t.Errorf("concurrent Unexplained diverged (err %v)", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := a.ExplainedFraction(ctx, 8); err != nil || got != wantFraction {
				t.Errorf("concurrent ExplainedFraction = (%v, %v), want %v", got, err, wantFraction)
			}
		}()
	}
	wg.Wait()
}
