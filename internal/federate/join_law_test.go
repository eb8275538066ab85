package federate_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/accesslog"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/federate"
	"repro/internal/relation"
)

// TestJoinOfRandomCutsMatchesSingleEngine is the K-way cut law: a log cut
// at K-1 random rows into K shard databases (K in [2, 5]) and Joined audits
// exactly like one engine over the whole log — the same StreamNDJSON bytes
// and the same unexplained rows — for Tiny seeds 1-3, over a chronological
// log and a row-shuffled one. Each Join shard's history is the merged log,
// a table other than its audited rows, so repeat access answers from the
// per-pair first accesses the engine keeps for such a history.
func TestJoinOfRandomCutsMatchesSingleEngine(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, order := range []string{"chronological", "shuffled"} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, order), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(seed), 11))
				cfg := ehr.Tiny()
				cfg.Seed = seed
				ds := ehr.Generate(cfg)
				log := ds.Log()
				n := log.NumRows()
				rows := make([]int, n)
				for r := range rows {
					rows[r] = r
				}
				if order == "shuffled" {
					rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
				}
				db := accesslog.WithLog(ds.DB, selectRows(log, rows))
				single := core.NewAuditor(db, graph(), core.WithNamer(ds))
				single.BuildGroups(core.GroupsOptions{})
				single.AddTemplates(explain.Handcrafted(true, true).All()...)

				k := 2 + rng.IntN(4)
				cuts := []int{0}
				for _, c := range rng.Perm(n - 1)[:k-1] {
					cuts = append(cuts, c+1)
				}
				slices.Sort(cuts)
				cuts = append(cuts, n)
				shards := make([]*relation.Database, k)
				for i := range shards {
					// db carries the single engine's Groups table, so the
					// Join reuses it instead of retraining.
					shards[i] = accesslog.WithLog(db, selectRows(log, rows[cuts[i]:cuts[i+1]]))
				}
				f, err := federate.Join(shards, graph(), federate.WithNamer(ds))
				if err != nil {
					t.Fatal(err)
				}
				f.AddTemplates(explain.Handcrafted(true, true).All()...)

				label := fmt.Sprintf("k=%d cuts=%v", k, cuts[1:k])
				want := mustNDJSON(t, single, 2)
				assertSameNDJSON(t, label, mustNDJSON(t, f, 2), want)
				got, wantRows := mustUnexplained(t, f, 2), mustUnexplained(t, single, 2)
				if !reflect.DeepEqual(got, wantRows) {
					t.Fatalf("%s: the Join leaves %d rows unexplained, the single engine %d", label, len(got), len(wantRows))
				}
				if len(wantRows) == 0 || len(wantRows) == n {
					t.Fatalf("%s: %d of %d rows unexplained: the fixture exercises nothing", label, len(wantRows), n)
				}
			})
		}
	}
}
