package federate_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/federate"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// TestRepeatAccessSharedIndexRace drives the one structure every shard of a
// Split shares: repeat access reads the engine's per-pair first-access
// table, built with the pair column on first use, so on a fresh database
// every mask worker of a shard asks for it at once, and the next shard finds
// it built. A K=4 federation streams with 4*K workers per shard and must
// match a single engine; after an append (which extends the table) and
// Refresh, it must match a from-scratch auditor over the grown log. The skewed layout has a run off the 64-row
// chunk boundary, an empty shard and a 1-row last shard that Refresh grows.
// Run under -race.
func TestRepeatAccessSharedIndexRace(t *testing.T) {
	const k = 4
	cfg := ehr.Tiny()
	cfg.Seed = 2
	ds := ehr.Generate(cfg)
	full := ds.DB.MustTable(pathmodel.LogTable)
	n := full.NumRows()
	cut := n * 9 / 10
	rows := make([]int, cut)
	for r := range rows {
		rows[r] = r
	}
	for layout, cuts := range map[string][]int{"time-ranges": nil, "skewed-cuts": {37, 37, cut - 1}} {
		t.Run(layout, func(t *testing.T) {
			db := relation.NewDatabase()
			for _, name := range ds.DB.TableNames() {
				if name == pathmodel.LogTable {
					db.AddTable(selectRows(full, rows))
				} else {
					db.AddTable(ds.DB.Table(name))
				}
			}
			log := db.MustTable(pathmodel.LogTable)
			fed, err := federate.Split(db, graph(), k, cuts, federate.WithNamer(ds))
			if err != nil {
				t.Fatal(err)
			}
			fed.AddTemplates(explain.RepeatAccess())
			check := func(stage string) {
				t.Helper()
				got := mustNDJSON(t, fed, 4*k)
				single := core.NewAuditor(db, graph(), core.WithNamer(ds))
				single.AddTemplates(explain.RepeatAccess())
				assertSameNDJSON(t, stage+": federated repeat-access stream", got, mustNDJSON(t, single, 4))
				gu, wu := mustUnexplained(t, fed, 4*k), mustUnexplained(t, single, 4)
				if !reflect.DeepEqual(gu, wu) {
					t.Fatalf("%s: federated repeat-access mask differs: %d vs %d unexplained", stage, len(gu), len(wu))
				}
				if len(wu) == 0 || len(wu) == log.NumRows() {
					t.Fatalf("%s: %d of %d rows unexplained: the fixture exercises nothing", stage, len(wu), log.NumRows())
				}
			}
			check("cold")

			for r := cut; r < n; r++ {
				log.Append(full.Row(r)...)
			}
			if appended, err := fed.Refresh(context.Background(), 4*k); err != nil || appended != n-cut {
				t.Fatalf("Refresh = (%d, %v), want (%d, nil)", appended, err, n-cut)
			}
			check("refreshed")
		})
	}
}
