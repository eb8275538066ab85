package federate_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/federate"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// accessedAgainLater is deliberately NOT append-monotone: repeat access's
// Log self-join decorated the other way, Log2.LogOrder > L.LogOrder, so a
// row is explained when its (patient, user) pair is accessed again later
// in the history log. Appending an access of an existing pair flips that
// pair's older rows that had no later access, so a shard serving a stale
// mask is guaranteed to diverge — the history-reading shape that must be
// rebuilt, never extended.
func accessedAgainLater() *explain.PathTemplate {
	return explain.NewPathTemplate("accessed-again-later", explain.RepeatAccess().Path,
		"[L.User|user] accessed [L.Patient|patient]'s record again later.",
		pathmodel.Decoration{
			Left:  pathmodel.Ref{Inst: 1, Col: pathmodel.LogOrder},
			Op:    pathmodel.OpGT,
			Right: pathmodel.Ref{Inst: 0, Col: pathmodel.LogOrder},
		})
}

// TestFederationRefreshMatchesSingleEngine appends a chronological suffix to
// a Split federation's merged log, Refreshes (the last shard's run grows,
// and each shard refreshes its masks independently), and checks the
// federated stream and aggregates against a from-scratch single engine over
// the grown log. Besides the TimeRanges cuts, one federation's last shard
// starts empty, so all of its rows arrive by Refresh.
func TestFederationRefreshMatchesSingleEngine(t *testing.T) {
	ctx := context.Background()
	type layout struct {
		k    int
		cuts func(cut int) []int
	}
	for _, l := range []layout{{1, nil}, {2, nil}, {3, nil}, {2, func(cut int) []int { return []int{cut} }}} {
		k := l.k
		cfg := ehr.Tiny()
		cfg.Seed = 1
		ds := ehr.Generate(cfg)
		full := ds.DB.MustTable(pathmodel.LogTable)
		n := full.NumRows()
		cut := n * 9 / 10

		// Rebuild the dataset's database with a truncated log.
		rows := make([]int, cut)
		for r := range rows {
			rows[r] = r
		}
		db := relation.NewDatabase()
		for _, name := range ds.DB.TableNames() {
			if name == pathmodel.LogTable {
				db.AddTable(selectRows(full, rows))
			} else {
				db.AddTable(ds.DB.Table(name))
			}
		}
		var cuts []int
		if l.cuts != nil {
			cuts = l.cuts(cut)
		}
		label := fmt.Sprintf("k=%d cuts=%v", k, cuts)
		fed, err := federate.Split(db, graph(), k, cuts, federate.WithNamer(ds))
		if err != nil {
			t.Fatal(err)
		}
		fed.AddTemplates(explain.Handcrafted(true, true).All()...)
		if _, warm, _, err := collectNDJSON(t, fed, 4); err != nil || warm != cut {
			t.Fatalf("%s: warm-up covered %d rows (%v), want %d", label, warm, err, cut)
		}

		log := db.MustTable(pathmodel.LogTable)
		for r := cut; r < n; r++ {
			log.Append(full.Row(r)...)
		}
		appended, err := fed.Refresh(ctx, 4)
		if err != nil {
			t.Fatalf("%s: Refresh: %v", label, err)
		}
		if appended != n-cut {
			t.Fatalf("%s: Refresh folded %d rows, want %d", label, appended, n-cut)
		}
		if st := fed.PlanCacheStats(); st.MaskExtensions == 0 || st.MaskRecomputes > st.MaskHits+st.MaskExtensions+st.MaskRecomputes {
			t.Errorf("%s: implausible mask counters after Refresh: %+v", label, st)
		}

		// Reference: a fresh single engine over the grown database, sharing
		// the Groups table the federation installed.
		single := core.NewAuditor(db, graph(), core.WithNamer(ds))
		single.AddTemplates(explain.Handcrafted(true, true).All()...)
		assertSameNDJSON(t, label+" refreshed stream", mustNDJSON(t, fed, 4), mustNDJSON(t, single, 4))
		if gf, wf := mustFraction(t, fed, 4), mustFraction(t, single, 4); gf != wf {
			t.Errorf("%s: refreshed fraction = %v, want %v", label, gf, wf)
		}
		if gu, wu := mustUnexplained(t, fed, 4), mustUnexplained(t, single, 4); !reflect.DeepEqual(gu, wu) {
			t.Errorf("%s: refreshed unexplained differ: %v vs %v", label, gu, wu)
		}
	}
}

// TestRefreshNonMonotoneHistoryGrowth pins the history watermark: every
// appended row joins the last shard, so the first shard's audited slice
// does not grow — but the shared history log did, and a non-append-monotone
// template can retroactively explain that shard's old rows. Refresh must
// rebuild such masks on every shard, matching a from-scratch single engine.
func TestRefreshNonMonotoneHistoryGrowth(t *testing.T) {
	ctx := context.Background()
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
	db := relation.NewDatabase()
	for _, name := range ds.DB.TableNames() {
		if name == pathmodel.LogTable {
			db.AddTable(selectRows(full, rows))
		} else {
			db.AddTable(ds.DB.Table(name))
		}
	}
	// All appended rows join shard 1; shard 0's slice never grows.
	fed, err := federate.Split(db, graph(), 2, []int{cut / 2})
	if err != nil {
		t.Fatal(err)
	}
	fed.AddTemplates(accessedAgainLater())
	warmFraction := mustFraction(t, fed, 2)

	log := db.MustTable(pathmodel.LogTable)
	for r := cut; r < n; r++ {
		log.Append(full.Row(r)...)
	}
	if _, err := fed.Refresh(ctx, 2); err != nil {
		t.Fatal(err)
	}

	single := core.NewAuditor(db, graph())
	single.AddTemplates(accessedAgainLater())
	assertSameNDJSON(t, "refreshed non-monotone stream (shard-0 stale mask?)", mustNDJSON(t, fed, 2), mustNDJSON(t, single, 2))
	gf, wf := mustFraction(t, fed, 2), mustFraction(t, single, 2)
	if gf != wf {
		t.Errorf("refreshed non-monotone fraction = %v, want %v", gf, wf)
	}
	// Sanity: the appended history must actually flip old rows (it does
	// whenever an appended access repeats a pair of the old log), so the
	// test cannot pass vacuously against a stale shard-0 mask.
	if gf == warmFraction {
		t.Errorf("appended rows flipped no old rows (fraction still %v); test is vacuous", gf)
	}
	if st := fed.PlanCacheStats(); st.MaskExtensions != 0 {
		t.Errorf("non-monotone template was extended (%d extensions), want rebuilds only", st.MaskExtensions)
	}
}

// TestJoinRefreshRefused pins the Join limitation: a Join federation's
// merged log is a construction, so Refresh after external growth is an
// error rather than a silent misaudit (and a no-growth Refresh is a no-op).
func TestJoinRefreshRefused(t *testing.T) {
	ctx := context.Background()
	cfg := ehr.Tiny()
	cfg.Seed = 1
	ds := ehr.Generate(cfg)
	fed, err := federate.Join([]*relation.Database{ds.DB}, graph(), federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	if appended, err := fed.Refresh(ctx, 2); err != nil || appended != 0 {
		t.Fatalf("no-growth Join Refresh = (%d, %v), want (0, nil)", appended, err)
	}
	merged := fed.Log()
	merged.Append(merged.Row(0)...)
	_, err = fed.Refresh(ctx, 2)
	if !errors.Is(err, federate.ErrUnsupported) {
		t.Fatalf("grown Join Refresh error = %v, want errors.Is ErrUnsupported", err)
	}
	if !strings.Contains(err.Error(), "Split") {
		t.Errorf("grown Join Refresh error = %q, want the Split-only message", err)
	}
}

// TestRefreshedStreamRetries drives a refreshed federation's stream through
// the resilience loop: after a Refresh folds a chronological suffix into the
// last shard, transient faults at every shard's stream start and mid-way
// through the last shard's rows are retried, and the stream still equals a
// single engine's stream over the grown log.
func TestRefreshedStreamRetries(t *testing.T) {
	t.Cleanup(fault.Reset)
	ctx := context.Background()
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
	db := relation.NewDatabase()
	for _, name := range ds.DB.TableNames() {
		if name == pathmodel.LogTable {
			db.AddTable(selectRows(full, rows))
		} else {
			db.AddTable(ds.DB.Table(name))
		}
	}
	fed, err := federate.Split(db, graph(), 3, nil, federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	fed.AddTemplates(explain.Handcrafted(true, true).All()...)
	fed.SetRetries(chaosRetries)
	log := db.MustTable(pathmodel.LogTable)
	for r := cut; r < n; r++ {
		log.Append(full.Row(r)...)
	}
	if _, err := fed.Refresh(ctx, 2); err != nil {
		t.Fatal(err)
	}
	single := core.NewAuditor(db, graph(), core.WithNamer(ds))
	single.AddTemplates(explain.Handcrafted(true, true).All()...)
	want := mustNDJSON(t, single, 2)

	fault.Reset()
	fault.Install(
		fault.Transient("federate.shard0.stream", 1),
		fault.Transient("federate.shard1.stream", 1),
		fault.Transient("federate.shard2.stream", 1),
		fault.Rule{Site: "federate.shard2.stream.row", After: 3, Count: 1,
			Err: fault.Retryable(errors.New("injected row fault"))},
	)
	got, _, _, err := collectNDJSON(t, fed, 2)
	if err != nil {
		t.Fatalf("StreamNDJSON under transient faults: %v", err)
	}
	if injected := fault.Default.Injected(); injected != 4 {
		t.Errorf("%d faults fired, want 4 (three stream starts and one row)", injected)
	}
	assertSameNDJSON(t, "stream under retries", got, want)
}
