package explain_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/accesslog"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/query"
)

// TestPermutedLogPermutesMasks is a metamorphic law: permuting the rows of
// the Log permutes every template's mask. For Tiny seeds 1-3, the log's rows
// are shuffled (every Lid kept) into a database that shares the event
// tables and the collaborative groups, and each of the 20 catalog
// templates' masks over the shuffled log must read, through the
// permutation, as its mask over the original. Repeat access orders a
// pair's accesses by (Date, Lid), so this pins that its per-pair state
// ignores row order.
func TestPermutedLogPermutesMasks(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		ds.DB.AddTable(groups.Train(ds.Log(), 8).Table(ehr.TableGroups))
		log := ds.Log()
		perm := rand.New(rand.NewSource(seed * 977)).Perm(log.NumRows())
		shuffled := accesslog.NewLogTable(log.Name())
		for _, r := range perm {
			shuffled.Append(log.Row(r)...)
		}
		orig := query.NewEvaluator(ds.DB)
		moved := query.NewEvaluator(accesslog.WithLog(ds.DB, shuffled))
		tpls := explain.Handcrafted(true, true).All()
		if len(tpls) != 20 {
			t.Fatalf("the catalog has %d templates, want 20", len(tpls))
		}
		for _, tpl := range tpls {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, tpl.Name()), func(t *testing.T) {
				want, got := tpl.Evaluate(orig), tpl.Evaluate(moved)
				explained := 0
				for i, r := range perm {
					if got[i] != want[r] {
						t.Fatalf("shuffled row %d (row %d) = %v, original %v", i, r, got[i], want[r])
					}
					if want[r] {
						explained++
					}
				}
				if tpl.Name() == explain.RepeatAccess().Name() && (explained == 0 || explained == len(want)) {
					t.Fatalf("repeat access explains %d of %d rows: the law is vacuous for it", explained, len(want))
				}
			})
		}
	}
}
