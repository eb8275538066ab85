package federate_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/accesslog"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/federate"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// layoutCase is one federation and the single engine over the same merged
// log.
type layoutCase struct {
	name   string
	single *core.Auditor
	fed    *federate.Federation
}

// timeRangeCases are TimeRanges Splits of a chronological log.
func timeRangeCases(t *testing.T) []layoutCase {
	ds, single := singleEngine(t, 1)
	var out []layoutCase
	for _, k := range []int{2, 4} {
		out = append(out, layoutCase{fmt.Sprintf("time-range k=%d", k), single, splitFederation(t, ds, k, nil)})
	}
	return out
}

// joinCase is a two-way Join of consecutive slices of the log.
func joinCase(t *testing.T) layoutCase {
	ds, single := singleEngine(t, 2)
	log := ds.Log()
	cut := log.NumRows() / 3
	var rowsA, rowsB []int
	for r := 0; r < log.NumRows(); r++ {
		if r < cut {
			rowsA = append(rowsA, r)
		} else {
			rowsB = append(rowsB, r)
		}
	}
	f, err := federate.Join([]*relation.Database{
		accesslog.WithLog(ds.DB, selectRows(log, rowsA)),
		accesslog.WithLog(ds.DB, selectRows(log, rowsB)),
	}, graph(), federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	f.AddTemplates(explain.Handcrafted(true, true).All()...)
	return layoutCase{"join", single, f}
}

// refreshedCase is a 3-way TimeRanges Split that grew by Append + Refresh:
// the appended rows join the last shard's run.
func refreshedCase(t *testing.T) layoutCase {
	cfg := ehr.Tiny()
	cfg.Seed = 3
	ds := ehr.Generate(cfg)
	full := ds.DB.MustTable(pathmodel.LogTable)
	n := full.NumRows()
	cut := n * 9 / 10
	rows := make([]int, cut)
	for r := range rows {
		rows[r] = r
	}
	db := accesslog.WithLog(ds.DB, selectRows(full, rows))
	f, err := federate.Split(db, graph(), 3, nil, federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	f.AddTemplates(explain.Handcrafted(true, true).All()...)
	mustNDJSON(t, f, 2)
	log := db.MustTable(pathmodel.LogTable)
	for r := cut; r < n; r++ {
		log.Append(full.Row(r)...)
	}
	if got, err := f.Refresh(context.Background(), 2); err != nil || got != n-cut {
		t.Fatalf("Refresh = (%d, %v), want (%d, nil)", got, err, n-cut)
	}
	// The reference shares the Groups table the federation installed.
	single := core.NewAuditor(db, graph(), core.WithNamer(ds))
	single.AddTemplates(explain.Handcrafted(true, true).All()...)
	return layoutCase{"time-range k=3 refreshed", single, f}
}

// shuffledCase is a TimeRanges Split of a log whose rows are shuffled, so
// the date buckets interleave in row order: the shards are runs of the
// bucket populations' sizes, each holding rows of every period.
func shuffledCase(t *testing.T) layoutCase {
	cfg := ehr.Tiny()
	cfg.Seed = 2
	ds := ehr.Generate(cfg)
	log := ds.Log()
	perm := rand.New(rand.NewPCG(2, 3)).Perm(log.NumRows())
	db := accesslog.WithLog(ds.DB, selectRows(log, perm))
	single := core.NewAuditor(db, graph(), core.WithNamer(ds))
	single.BuildGroups(core.GroupsOptions{})
	single.AddTemplates(explain.Handcrafted(true, true).All()...)
	f, err := federate.Split(db, graph(), 4, nil, federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	f.AddTemplates(explain.Handcrafted(true, true).All()...)
	return layoutCase{"time-range k=4 shuffled", single, f}
}

// TestStreamLayoutsMatchSingleEngine pins the federated NDJSON stream byte
// for byte, with its row and explained counts, to the single engine over
// every shard layout a product federation has: TimeRanges cuts over a
// chronological log (the CLI's -shards K), a Join, a TimeRanges Split grown
// by Refresh, and TimeRanges cuts over a date-shuffled log, whose shards
// each hold rows from every period.
func TestStreamLayoutsMatchSingleEngine(t *testing.T) {
	cases := append(timeRangeCases(t), joinCase(t), refreshedCase(t), shuffledCase(t))
	for _, c := range cases {
		want, wantRows, wantExplained, err := collectNDJSON(t, c.single, 4)
		if err != nil {
			t.Fatalf("%s: single StreamNDJSON: %v", c.name, err)
		}
		if wantRows != c.fed.Log().NumRows() {
			t.Fatalf("%s: single engine covers %d rows, federation %d", c.name, wantRows, c.fed.Log().NumRows())
		}
		for _, j := range []int{1, 2, 4} {
			got, rows, explained, err := collectNDJSON(t, c.fed, j)
			if err != nil {
				t.Fatalf("%s j=%d: StreamNDJSON: %v", c.name, j, err)
			}
			label := fmt.Sprintf("%s j=%d", c.name, j)
			assertSameNDJSON(t, label, got, want)
			if rows != wantRows || explained != wantExplained {
				t.Fatalf("%s: %d rows, %d explained; single engine %d rows, %d explained",
					label, rows, explained, wantRows, wantExplained)
			}
		}
	}
}
