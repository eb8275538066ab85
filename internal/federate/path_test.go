package federate_test

import (
	"bytes"
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

// pathCase is one federation, the single engine over the same merged log,
// and the stream path the federation's assignment must select.
type pathCase struct {
	name   string
	single *core.Auditor
	fed    *federate.Federation
	path   string
}

// timeRangeCases are TimeRanges Splits of a chronological log: in-order.
func timeRangeCases(t *testing.T) []pathCase {
	ds, single := singleEngine(t, 1)
	var out []pathCase
	for _, k := range []int{2, 4} {
		out = append(out, pathCase{fmt.Sprintf("time-range k=%d", k), single, splitFederation(t, ds, k, nil), "in-order"})
	}
	return out
}

// joinCase is a two-way Join of contiguous slices of the log: in-order.
func joinCase(t *testing.T) pathCase {
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
		accesslog.WithLog(ds.DB, log.Select(pathmodel.LogTable, rowsA)),
		accesslog.WithLog(ds.DB, log.Select(pathmodel.LogTable, rowsB)),
	}, graph(), federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	f.AddTemplates(explain.Handcrafted(true, true).All()...)
	return pathCase{"join", single, f, "in-order"}
}

// refreshedCase is a 3-way TimeRanges Split that grew by Append + Refresh:
// the appended rows are later than every bucket and land on the last
// shard, so the shards stay contiguous.
func refreshedCase(t *testing.T) pathCase {
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
	db := accesslog.WithLog(ds.DB, full.Select(pathmodel.LogTable, rows))
	f, err := federate.Split(db, graph(), 3, nil, federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	f.AddTemplates(explain.Handcrafted(true, true).All()...)
	if _, err := f.ExplainAll(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
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
	return pathCase{"time-range k=3 refreshed", single, f, "in-order"}
}

// roundRobinCase is a round-robin Split: merge.
func roundRobinCase(t *testing.T) pathCase {
	ds, single := singleEngine(t, 1)
	return pathCase{"round-robin k=3", single, splitFederation(t, ds, 3, func(row int) int { return row % 3 }), "merge"}
}

// shuffledCase is a TimeRanges Split of a log whose rows are shuffled, so
// the date buckets interleave in row order: merge.
func shuffledCase(t *testing.T) pathCase {
	cfg := ehr.Tiny()
	cfg.Seed = 2
	ds := ehr.Generate(cfg)
	log := ds.Log()
	perm := rand.New(rand.NewPCG(2, 3)).Perm(log.NumRows())
	db := accesslog.WithLog(ds.DB, log.Select(pathmodel.LogTable, perm))
	single := core.NewAuditor(db, graph(), core.WithNamer(ds))
	single.BuildGroups(core.GroupsOptions{})
	single.AddTemplates(explain.Handcrafted(true, true).All()...)
	f, err := federate.Split(db, graph(), 4, nil, federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	f.AddTemplates(explain.Handcrafted(true, true).All()...)
	return pathCase{"time-range k=4 shuffled", single, f, "merge"}
}

// ndjsonStream is the encoded stream surface core.Auditor and
// federate.Federation share.
type ndjsonStream interface {
	StreamNDJSON(ctx context.Context, parallelism int, emit func(buf []byte, rows, explained int) error) error
}

// collectNDJSON concatenates e's StreamNDJSON chunks, checking that each is
// whole lines, and returns the bytes with the row and explained totals.
func collectNDJSON(t *testing.T, e ndjsonStream, j int) (out []byte, rows, explained int, err error) {
	t.Helper()
	err = e.StreamNDJSON(context.Background(), j, func(buf []byte, r, x int) error {
		if r <= 0 || bytes.Count(buf, []byte("\n")) != r || buf[len(buf)-1] != '\n' {
			t.Fatalf("chunk of %d bytes is not %d whole lines", len(buf), r)
		}
		out = append(out, buf...)
		rows += r
		explained += x
		return nil
	})
	return out, rows, explained, err
}

// TestStreamPathSelection pins which path each shard assignment takes and
// that both paths stay byte-identical to the single engine: contiguous
// assignments (TimeRanges over a chronological log, a Join, a TimeRanges
// Split grown by Refresh) stream in order, the others merge. A contiguity
// check that wrongly says no fails here, not only in a benchmark.
func TestStreamPathSelection(t *testing.T) {
	ctx := context.Background()
	cases := append(timeRangeCases(t), joinCase(t), refreshedCase(t), roundRobinCase(t), shuffledCase(t))
	for _, c := range cases {
		want := mustExplainAll(t, c.single, 4)
		wantNDJSON, wantRows, wantExplained, err := collectNDJSON(t, c.single, 4)
		if err != nil {
			t.Fatalf("%s: single StreamNDJSON: %v", c.name, err)
		}
		if wantRows != len(want) || len(want) != c.fed.Rows() {
			t.Fatalf("%s: single engine covers %d/%d rows, federation %d", c.name, wantRows, len(want), c.fed.Rows())
		}
		for _, j := range []int{1, 2, 4} {
			var got []core.AccessReport
			path, err := federate.StreamPath(func() (err error) {
				got, err = c.fed.ExplainAll(ctx, j)
				return err
			})
			if err != nil {
				t.Fatalf("%s j=%d: StreamReports: %v", c.name, j, err)
			}
			if path != c.path {
				t.Fatalf("%s j=%d: StreamReports took the %s path, want %s", c.name, j, path, c.path)
			}
			assertReportsEqual(t, fmt.Sprintf("%s j=%d", c.name, j), got, want)

			var gotNDJSON []byte
			var rows, explained int
			path, err = federate.StreamPath(func() (err error) {
				gotNDJSON, rows, explained, err = collectNDJSON(t, c.fed, j)
				return err
			})
			if err != nil {
				t.Fatalf("%s j=%d: StreamNDJSON: %v", c.name, j, err)
			}
			if path != c.path {
				t.Fatalf("%s j=%d: StreamNDJSON took the %s path, want %s", c.name, j, path, c.path)
			}
			if !bytes.Equal(gotNDJSON, wantNDJSON) || rows != wantRows || explained != wantExplained {
				t.Fatalf("%s j=%d: StreamNDJSON gave %d bytes (%d rows, %d explained), single engine %d bytes (%d rows, %d explained)",
					c.name, j, len(gotNDJSON), rows, explained, len(wantNDJSON), wantRows, wantExplained)
			}
		}
	}
}
