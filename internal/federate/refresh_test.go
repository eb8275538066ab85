package federate_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/federate"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// historyCountTemplate is deliberately NOT append-monotone (and not
// introspectable, so explain.AppendMonotone reports false): a row is
// explained when its user appears an even number of times in the full
// history log. Appending one access flips every old row of that user, so a
// shard serving a stale mask is guaranteed to diverge — the
// mined-unguarded-self-join shape that must be rebuilt, never extended.
type historyCountTemplate struct{}

func (historyCountTemplate) Name() string { return "even-user" }
func (historyCountTemplate) Length() int  { return 1 }
func (historyCountTemplate) SQL() string  { return "-- user appears an even number of times in history" }
func (t historyCountTemplate) Evaluate(ev *query.Evaluator) []bool {
	return t.EvaluateRange(ev, 0, ev.Log().NumRows())
}
func (historyCountTemplate) EvaluateRange(ev *query.Evaluator, lo, hi int) []bool {
	history := ev.Database().MustTable(pathmodel.LogTable)
	ui, _ := history.ColumnIndex(pathmodel.LogUserColumn)
	counts := make(map[relation.Value]int)
	for r := 0; r < history.NumRows(); r++ {
		counts[history.Row(r)[ui]]++
	}
	audited := ev.Log()
	aui, _ := audited.ColumnIndex(pathmodel.LogUserColumn)
	out := make([]bool, hi-lo)
	for r := lo; r < hi; r++ {
		out[r-lo] = counts[audited.Row(r)[aui]]%2 == 0
	}
	return out
}
func (historyCountTemplate) Render(*query.Evaluator, int, int, explain.Namer) []string { return nil }

// TestFederationRefreshMatchesSingleEngine appends a chronological suffix
// to a Split federation's merged log, Refreshes (each shard extends its
// masks independently), and checks the federated stream, aggregates, and
// tail reports against a from-scratch single engine over the grown log.
func TestFederationRefreshMatchesSingleEngine(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = 1
		ds := ehr.Generate(cfg)
		full := ds.DB.MustTable(pathmodel.LogTable)
		n := full.NumRows()
		cut := n * 9 / 10

		// Rebuild the dataset's database with a truncated log; round-robin
		// assignment so every shard receives appended rows.
		rows := make([]int, cut)
		for r := range rows {
			rows[r] = r
		}
		db := relation.NewDatabase()
		for _, name := range ds.DB.TableNames() {
			if name == pathmodel.LogTable {
				db.AddTable(full.Select(pathmodel.LogTable, rows))
			} else {
				db.AddTable(ds.DB.Table(name))
			}
		}
		fed, err := federate.Split(db, graph(), k, func(row int) int { return row % k }, federate.WithNamer(ds))
		if err != nil {
			t.Fatal(err)
		}
		fed.AddTemplates(explain.Handcrafted(true, true).All()...)
		warm := mustExplainAll(t, fed, 4)
		if len(warm) != cut {
			t.Fatalf("k=%d: warm-up covered %d rows, want %d", k, len(warm), cut)
		}

		log := db.MustTable(pathmodel.LogTable)
		for r := cut; r < n; r++ {
			log.Append(full.Row(r)...)
		}
		appended, err := fed.Refresh(ctx, 4)
		if err != nil {
			t.Fatalf("k=%d: Refresh: %v", k, err)
		}
		if appended != n-cut {
			t.Fatalf("k=%d: Refresh folded %d rows, want %d", k, appended, n-cut)
		}
		if st := fed.PlanCacheStats(); st.MaskExtensions == 0 || st.MaskRecomputes > st.MaskHits+st.MaskExtensions+st.MaskRecomputes {
			t.Errorf("k=%d: implausible mask counters after Refresh: %+v", k, st)
		}

		// Reference: a fresh single engine over the grown database, sharing
		// the Groups table the federation installed.
		single := core.NewAuditor(db, graph(), core.WithNamer(ds))
		single.AddTemplates(explain.Handcrafted(true, true).All()...)
		want := mustExplainAll(t, single, 4)

		got := mustExplainAll(t, fed, 4)
		if !reflect.DeepEqual(got, want) {
			for r := range want {
				if r >= len(got) || !reflect.DeepEqual(got[r], want[r]) {
					t.Fatalf("k=%d: refreshed federated report %d differs", k, r)
				}
			}
			t.Fatalf("k=%d: refreshed federated reports differ", k)
		}
		if gf, wf := mustFraction(t, fed, 4), mustFraction(t, single, 4); gf != wf {
			t.Errorf("k=%d: refreshed fraction = %v, want %v", k, gf, wf)
		}
		if gu, wu := mustUnexplained(t, fed, 4), mustUnexplained(t, single, 4); !reflect.DeepEqual(gu, wu) {
			t.Errorf("k=%d: refreshed unexplained differ: %v vs %v", k, gu, wu)
		}

		// TailReports over the appended range must equal the stream suffix.
		var tail []core.AccessReport
		if err := fed.TailReports(ctx, cut, func(rep core.AccessReport) error {
			tail = append(tail, rep)
			return nil
		}); err != nil {
			t.Fatalf("k=%d: TailReports: %v", k, err)
		}
		if !reflect.DeepEqual(tail, want[cut:]) {
			t.Errorf("k=%d: TailReports differs from stream suffix", k)
		}
	}
}

// TestRefreshNonMonotoneHistoryGrowth pins the history watermark: when
// every appended row routes to one shard, the other shard's audited slice
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
			db.AddTable(full.Select(pathmodel.LogTable, rows))
		} else {
			db.AddTable(ds.DB.Table(name))
		}
	}
	// All appended rows route to shard 1; shard 0's slice never grows.
	fed, err := federate.Split(db, graph(), 2, func(row int) int {
		if row >= cut {
			return 1
		}
		return row % 2
	}, federate.WithoutGroups())
	if err != nil {
		t.Fatal(err)
	}
	fed.AddTemplates(historyCountTemplate{})
	warmFraction := mustFraction(t, fed, 2)

	log := db.MustTable(pathmodel.LogTable)
	for r := cut; r < n; r++ {
		log.Append(full.Row(r)...)
	}
	if _, err := fed.Refresh(ctx, 2); err != nil {
		t.Fatal(err)
	}

	single := core.NewAuditor(db, graph())
	single.AddTemplates(historyCountTemplate{})
	got := mustExplainAll(t, fed, 2)
	want := mustExplainAll(t, single, 2)
	if !reflect.DeepEqual(got, want) {
		for r := range want {
			if r >= len(got) || !reflect.DeepEqual(got[r], want[r]) {
				t.Fatalf("refreshed non-monotone report %d differs (shard-0 stale mask?)", r)
			}
		}
		t.Fatal("refreshed non-monotone reports differ")
	}
	gf, wf := mustFraction(t, fed, 2), mustFraction(t, single, 2)
	if gf != wf {
		t.Errorf("refreshed non-monotone fraction = %v, want %v", gf, wf)
	}
	// Sanity: the appended history must actually flip old rows (parity
	// guarantees it whenever any appended user has prior accesses), so the
	// test cannot pass vacuously against a stale shard-0 mask.
	if gf == warmFraction {
		t.Errorf("appended rows flipped no old rows (fraction still %v); test is vacuous", gf)
	}
	if st := fed.PlanCacheStats(); st.MaskExtensions != 0 {
		t.Errorf("non-monotone template was extended (%d extensions), want rebuilds only", st.MaskExtensions)
	}
}

// TestRefreshBadAssignmentLeavesStateIntact pins Refresh's atomicity: an
// assignment that routes an appended row out of range must fail before any
// shard is mutated, so a corrected retry folds every row exactly once.
func TestRefreshBadAssignmentLeavesStateIntact(t *testing.T) {
	ctx := context.Background()
	cfg := ehr.Tiny()
	cfg.Seed = 1
	ds := ehr.Generate(cfg)
	full := ds.DB.MustTable(pathmodel.LogTable)
	n := full.NumRows()
	cut := n - 8

	rows := make([]int, cut)
	for r := range rows {
		rows[r] = r
	}
	db := relation.NewDatabase()
	for _, name := range ds.DB.TableNames() {
		if name == pathmodel.LogTable {
			db.AddTable(full.Select(pathmodel.LogTable, rows))
		} else {
			db.AddTable(ds.DB.Table(name))
		}
	}
	misroute := false
	fed, err := federate.Split(db, graph(), 2, func(row int) int {
		if misroute && row >= cut+4 {
			return 99
		}
		return row % 2
	}, federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	fed.AddTemplates(explain.Handcrafted(true, true).All()...)
	_ = mustExplainAll(t, fed, 2)

	log := db.MustTable(pathmodel.LogTable)
	for r := cut; r < n; r++ {
		log.Append(full.Row(r)...)
	}
	shardRows := func() []int {
		var out []int
		for _, si := range fed.ShardInfos() {
			out = append(out, si.Rows)
		}
		return out
	}
	before := shardRows()
	misroute = true
	if _, err := fed.Refresh(ctx, 2); err == nil {
		t.Fatal("misrouted Refresh succeeded, want error")
	}
	if got := shardRows(); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed Refresh mutated shards: %v -> %v", before, got)
	}

	misroute = false
	appended, err := fed.Refresh(ctx, 2)
	if err != nil {
		t.Fatalf("retry Refresh: %v", err)
	}
	if appended != n-cut {
		t.Fatalf("retry folded %d rows, want %d", appended, n-cut)
	}
	single := core.NewAuditor(db, graph(), core.WithNamer(ds))
	single.AddTemplates(explain.Handcrafted(true, true).All()...)
	if got, want := mustExplainAll(t, fed, 2), mustExplainAll(t, single, 2); !reflect.DeepEqual(got, want) {
		t.Error("post-retry federated reports differ from single engine")
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
