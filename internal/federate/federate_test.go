package federate_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/accesslog"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/federate"
	"repro/internal/mine"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
	"repro/internal/store"
)

func graph() *schemagraph.Graph { return ehr.SchemaGraph(ehr.DefaultGraphOptions()) }

// singleEngine builds the reference: one fully configured auditor (groups
// plus the complete hand-crafted catalog) over a Tiny hospital generated
// with the given seed.
func singleEngine(t testing.TB, seed int64) (*ehr.Dataset, *core.Auditor) {
	t.Helper()
	cfg := ehr.Tiny()
	cfg.Seed = seed
	ds := ehr.Generate(cfg)
	a := core.NewAuditor(ds.DB, graph(), core.WithNamer(ds))
	a.BuildGroups(core.GroupsOptions{})
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	return ds, a
}

// splitFederation federates the single engine's database into k shards, cut
// at the given row cut points (nil: TimeRanges), with the same namer and
// templates, reusing its Groups table.
func splitFederation(t testing.TB, ds *ehr.Dataset, k int, cuts []int) *federate.Federation {
	t.Helper()
	f, err := federate.Split(ds.DB, graph(), k, cuts, federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	f.AddTemplates(explain.Handcrafted(true, true).All()...)
	return f
}

// TestFederatedStreamMatchesSingleEngine is the tentpole differential: for
// K in {1, 2, 4} shards of a partitioned log, across three dataset seeds,
// the federated NDJSON stream must be byte-identical to the single-engine
// stream over the whole log, at several worker budgets. Besides the TimeRanges cuts, skewed cuts are exercised —
// a cut off the 64-row core chunk boundary, an empty shard, a 1-row last
// shard — because the audit surface must be partition-invariant.
func TestFederatedStreamMatchesSingleEngine(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds, single := singleEngine(t, seed)
		want := mustNDJSON(t, single, 4)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty single-engine audit", seed)
		}
		n := ds.Log().NumRows()
		for _, k := range []int{1, 2, 4} {
			layouts := map[string][]int{"time-range": nil}
			switch k {
			case 2:
				layouts["off-chunk cut"] = []int{100}
				layouts["empty first shard"] = []int{0}
				layouts["1-row last shard"] = []int{n - 1}
			case 4:
				layouts["skewed"] = []int{100, 100, n - 1}
			}
			for name, cuts := range layouts {
				f := splitFederation(t, ds, k, cuts)
				if f.Log().NumRows() != n {
					t.Fatalf("seed %d k=%d %s: federation covers %d rows, want %d", seed, k, name, f.Log().NumRows(), n)
				}
				for _, par := range []int{1, 4, 8} {
					assertSameNDJSON(t, fmt.Sprintf("seed %d k=%d %s j=%d", seed, k, name, par), mustNDJSON(t, f, par), want)
				}
			}
		}
	}
}

// TestFederatedJoinMatchesSingleEngine covers the multi-database shape: two
// separately assembled databases (each holding a contiguous slice of the
// log and the shared metadata) joined into a federation must audit exactly
// like a single engine over the whole log — including the repeat-access
// history and collaborative groups spanning both shards.
func TestFederatedJoinMatchesSingleEngine(t *testing.T) {
	ds, single := singleEngine(t, 2)
	want := mustNDJSON(t, single, 4)

	log := ds.Log()
	cut := log.NumRows() / 3
	rowsA := make([]int, 0, cut)
	rowsB := make([]int, 0, log.NumRows()-cut)
	for r := 0; r < log.NumRows(); r++ {
		if r < cut {
			rowsA = append(rowsA, r)
		} else {
			rowsB = append(rowsB, r)
		}
	}
	dbA := accesslog.WithLog(ds.DB, selectRows(log, rowsA))
	dbB := accesslog.WithLog(ds.DB, selectRows(log, rowsB))

	f, err := federate.Join([]*relation.Database{dbA, dbB}, graph(),
		federate.WithNamer(ds), federate.WithShardNames("east", "west"))
	if err != nil {
		t.Fatal(err)
	}
	f.AddTemplates(explain.Handcrafted(true, true).All()...)
	// Both shard databases carry the single engine's Groups table (WithLog
	// copies the metadata tables), so the Join warm-starts from the identical
	// copies instead of retraining — Hierarchy is nil, and the differential
	// below proves the reused table audits exactly like the single engine.
	if f.Hierarchy() != nil {
		t.Error("Join retrained Groups despite identical shard copies")
	}

	assertSameNDJSON(t, "joined stream", mustNDJSON(t, f, 4), want)

	infos := f.ShardInfos()
	if len(infos) != 2 || infos[0].Name != "east" || infos[1].Name != "west" {
		t.Errorf("shard infos: %+v", infos)
	}
	if infos[0].Rows != cut || infos[1].Rows != log.NumRows()-cut {
		t.Errorf("shard rows: %+v", infos)
	}
}

// TestJoinWarmStartMatchesRetrained is the warm-start differential: a Join
// whose shards carry a Groups table persisted through the segment store
// (store.SaveTable, then store.Open) must reuse it without retraining, and
// the reused federation must audit exactly like the cold Join that trained
// the table — while a diverged copy on any shard forces retraining.
func TestJoinWarmStartMatchesRetrained(t *testing.T) {
	cfg := ehr.Tiny()
	cfg.Seed = 5
	ds := ehr.Generate(cfg)
	log := ds.Log()
	cut := log.NumRows() / 2
	rows := make([]int, log.NumRows())
	for r := range rows {
		rows[r] = r
	}
	shardDBs := []*relation.Database{
		accesslog.WithLog(ds.DB, selectRows(log, rows[:cut])),
		accesslog.WithLog(ds.DB, selectRows(log, rows[cut:])),
	}

	cold, err := federate.Join(shardDBs, graph(), federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	cold.AddTemplates(explain.Handcrafted(true, true).All()...)
	if cold.Hierarchy() == nil {
		t.Fatal("cold Join over groupless shards did not train a hierarchy")
	}
	want := mustNDJSON(t, cold, 4)
	trained := cold.Hierarchy().Table(core.DefaultGroupsTable)

	// Persist the trained table into each shard's store and reopen — the
	// exact bytes a shard store hands the next federation start.
	warmDBs := make([]*relation.Database, len(shardDBs))
	for i, db := range shardDBs {
		dir := t.TempDir()
		st, err := store.Create(dir, db)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveTable(trained); err != nil {
			t.Fatal(err)
		}
		if _, warmDBs[i], err = store.Open(dir); err != nil {
			t.Fatal(err)
		}
		got := warmDBs[i].Table(core.DefaultGroupsTable)
		if got == nil || got.NumRows() != trained.NumRows() {
			t.Fatalf("shard %d store round trip lost the Groups table", i)
		}
	}

	warm, err := federate.Join(warmDBs, graph(), federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	warm.AddTemplates(explain.Handcrafted(true, true).All()...)
	if warm.Hierarchy() != nil {
		t.Error("warm Join retrained Groups despite identical persisted copies")
	}
	if got := mustNDJSON(t, warm, 4); !bytes.Equal(got, want) {
		t.Error("warm Join over persisted Groups audits differently from the cold Join that trained them")
	}

	// A diverged copy on one shard must not be trusted: retrain, and still
	// match the cold audit (training is a pure function of the merged log).
	diverged := warmDBs[0].Table(core.DefaultGroupsTable).Clone(core.DefaultGroupsTable)
	diverged.Append(diverged.Row(0)...)
	mixed := []*relation.Database{accesslog.WithLog(warmDBs[0], warmDBs[0].Table(pathmodel.LogTable)), warmDBs[1]}
	mixed[0].AddTable(diverged)
	refed, err := federate.Join(mixed, graph(), federate.WithNamer(ds))
	if err != nil {
		t.Fatal(err)
	}
	refed.AddTemplates(explain.Handcrafted(true, true).All()...)
	if refed.Hierarchy() == nil {
		t.Error("Join reused a diverged Groups copy instead of retraining")
	}
	if got := mustNDJSON(t, refed, 4); !bytes.Equal(got, want) {
		t.Error("retrained Join audits differently from the original cold Join")
	}
}

// TestFederatedAggregates pins the aggregated surface — ExplainedFraction,
// Unexplained, PatientReport — to the single-engine
// results, including exact float equality for the fraction (both sides
// divide the same integers).
func TestFederatedAggregates(t *testing.T) {
	ds, single := singleEngine(t, 3)
	f := splitFederation(t, ds, 4, nil)

	wantUnexplained := mustUnexplained(t, single, 4)
	gotUnexplained := mustUnexplained(t, f, 4)
	if !reflect.DeepEqual(gotUnexplained, wantUnexplained) {
		t.Errorf("unexplained rows differ: %d federated vs %d single", len(gotUnexplained), len(wantUnexplained))
	}

	if got, want := mustFraction(t, f, 4), mustFraction(t, single, 4); got != want {
		t.Errorf("explained fraction %v, want %v", got, want)
	}

	log := ds.Log()
	patients := distinctValues(log, pathmodel.LogPatientColumn)
	for _, pv := range patients[:min(5, len(patients))] {
		got := mustPatientReport(t, f, pv, 1)
		want := mustPatientReport(t, single, pv, 1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("patient %v: federated report differs", pv)
		}
	}

	if stats := f.PlanCacheStats(); stats.Misses == 0 {
		t.Error("aggregated plan-cache stats show no compilations after a full audit")
	}
}

// TestFederatedMiningMatchesSingleLog checks that mining over the
// federation produces exactly the templates and statistics of mining the
// merged log on one engine, for every algorithm and at several worker
// budgets.
func TestFederatedMiningMatchesSingleLog(t *testing.T) {
	ds, _ := singleEngine(t, 1)
	f := splitFederation(t, ds, 3, nil)

	opt := mine.DefaultOptions()
	opt.MaxLength = 3
	for _, algo := range []string{mine.AlgoOneWay, mine.AlgoTwoWay, mine.AlgoBridge(2)} {
		want, err := mine.Run(algo, query.NewEvaluator(ds.DB), graph(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			fopt := opt
			fopt.Parallelism = par
			got, err := f.MineTemplates(algo, fopt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Templates, want.Templates) {
				t.Errorf("%s j=%d: mined %d templates, want %d", algo, par, len(got.Templates), len(want.Templates))
			}
			if got.Stats.CandidatesGenerated != want.Stats.CandidatesGenerated ||
				got.Stats.SupportQueries != want.Stats.SupportQueries ||
				got.Stats.CacheHits != want.Stats.CacheHits ||
				got.Stats.Skipped != want.Stats.Skipped {
				t.Errorf("%s j=%d: stats differ:\n got %+v\nwant %+v", algo, par, got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(got.Stats.TemplatesByLength, want.Stats.TemplatesByLength) {
				t.Errorf("%s j=%d: templates-by-length differ", algo, par)
			}
		}
	}
}

// TestFederatedCancellation checks that a cancelled context stops the
// federated stream promptly with ctx.Err() and turns every aggregate into
// that error, never a nil or zero result, mirroring the core engine's
// contract.
func TestFederatedCancellation(t *testing.T) {
	ds, _ := singleEngine(t, 1)
	f := splitFederation(t, ds, 2, nil)

	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err := f.StreamNDJSON(ctx, 4, func(_ []byte, rows, _ int) error {
		seen += rows
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("StreamNDJSON after cancel = %v, want context.Canceled", err)
	}
	if seen >= f.Log().NumRows() {
		t.Errorf("cancelled stream still saw all %d rows", seen)
	}

	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	seen = 0
	err = f.StreamNDJSON(cancelled, 4, func(_ []byte, rows, _ int) error {
		seen += rows
		return nil
	})
	if seen != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("StreamNDJSON on cancelled ctx = (%d rows, %v), want (none, context.Canceled)", seen, err)
	}
	if got, err := f.Unexplained(cancelled, 4); got != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Unexplained on cancelled ctx = (%v, %v), want (nil, context.Canceled)", got, err)
	}
	if got, err := f.ExplainedFraction(cancelled, 4); got != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("ExplainedFraction on cancelled ctx = (%v, %v), want (0, context.Canceled)", got, err)
	}
}

// TestSplitValidation pins the construction errors: a bad shard count,
// malformed cut points, a database without a log.
func TestSplitValidation(t *testing.T) {
	ds, _ := singleEngine(t, 1)
	if _, err := federate.Split(ds.DB, graph(), 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	n := ds.Log().NumRows()
	for name, c := range map[string]struct {
		k    int
		cuts []int
	}{
		"too few cuts":       {3, []int{n / 2}},
		"too many cuts":      {2, []int{n / 3, n / 2}},
		"cuts for k=1":       {1, []int{n / 2}},
		"descending":         {3, []int{n / 2, n / 3}},
		"negative":           {2, []int{-1}},
		"past the row count": {2, []int{n + 1}},
	} {
		if _, err := federate.Split(ds.DB, graph(), c.k, c.cuts); err == nil {
			t.Errorf("%s: Split(k=%d, cuts=%v) over %d rows accepted", name, c.k, c.cuts, n)
		}
	}
	if _, err := federate.Join(nil, graph()); err == nil {
		t.Error("empty Join accepted")
	}
	empty := relation.NewDatabase()
	if _, err := federate.Split(empty, graph(), 2, nil); err == nil {
		t.Error("logless database accepted")
	}
	if _, err := federate.Join([]*relation.Database{empty}, graph()); err == nil {
		t.Error("logless Join member accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// shardOf returns the shard a Split at the given cut points gives row r.
func shardOf(cuts []int, r int) int {
	s := 0
	for s < len(cuts) && cuts[s] <= r {
		s++
	}
	return s
}

// checkCutsAgainstBuckets pins TimeRanges(log, k) to the per-row date
// bucket reference: the run sizes are the bucket populations, and when the
// buckets are non-decreasing in row order (a chronological log) cut i is the
// first row whose bucket is >= i, so every shard is exactly its bucket.
func checkCutsAgainstBuckets(t *testing.T, label string, log *relation.Table, k int) []int {
	t.Helper()
	cuts := federate.TimeRanges(log, k)
	if len(cuts) != k-1 {
		t.Fatalf("%s: %d cut points for k=%d", label, len(cuts), k)
	}
	bucket := federate.TimeBucketReference(log, k)
	n := log.NumRows()
	pop := make([]int, k)
	chronological := true
	for r := 0; r < n; r++ {
		b := bucket(r)
		if b < 0 || b >= k {
			t.Fatalf("%s: row %d in bucket %d, want [0, %d)", label, r, b, k)
		}
		pop[b]++
		if r > 0 && b < bucket(r-1) {
			chronological = false
		}
	}
	for s, prev := 0, 0; s < k; s++ {
		end := n
		if s < k-1 {
			end = cuts[s]
		}
		if end-prev != pop[s] {
			t.Fatalf("%s: shard %d has %d rows, bucket %d holds %d (cuts %v)", label, s, end-prev, s, pop[s], cuts)
		}
		prev = end
	}
	if chronological {
		for i := 1; i < k; i++ {
			first := n
			for r := 0; r < n; r++ {
				if bucket(r) >= i {
					first = r
					break
				}
			}
			if cuts[i-1] != first {
				t.Fatalf("%s: cut %d is row %d, want %d, the first row in bucket >= %d", label, i, cuts[i-1], first, i)
			}
		}
	}
	return cuts
}

// TestTimeRangesMatchesDateBuckets pins the default cut points on the Tiny
// hospital: over its chronological log every shard is exactly one date
// bucket, and over a shuffled copy the runs keep the bucket populations.
func TestTimeRangesMatchesDateBuckets(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		log := ehr.Generate(cfg).Log()
		shuffled := selectRows(log, rand.New(rand.NewPCG(uint64(seed), 7)).Perm(log.NumRows()))
		for _, k := range []int{2, 3, 4, 7} {
			bucket := federate.TimeBucketReference(log, k)
			for r := 1; r < log.NumRows(); r++ {
				if bucket(r) < bucket(r-1) {
					t.Fatalf("seed %d k=%d: the Tiny log is not chronological at row %d", seed, k, r)
				}
			}
			checkCutsAgainstBuckets(t, fmt.Sprintf("seed %d k=%d", seed, k), log, k)
			checkCutsAgainstBuckets(t, fmt.Sprintf("seed %d k=%d shuffled", seed, k), shuffled, k)
		}
	}
}

// TestTimeRangesExtremeDates pins the default cut points against date
// ranges as wide as the int64 domain (epoch-nanosecond logs): every bucket
// stays in [0, k) and non-decreasing in date — no integer overflow into
// negative buckets — the cuts match the buckets, and the extreme dates do
// not collapse into one shard.
func TestTimeRangesExtremeDates(t *testing.T) {
	log := relation.NewTable(pathmodel.LogTable, "Lid", "Date", "User", "Patient")
	dates := []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 / 2, -1, 0, 1,
		math.MaxInt64 / 2, math.MaxInt64 - 1, math.MaxInt64}
	for i, d := range dates {
		log.Append(relation.Int(int64(i)), relation.Date(int(d)), relation.Int(1), relation.Int(1))
	}
	for _, k := range []int{1, 2, 4, 7} {
		bucket := federate.TimeBucketReference(log, k)
		for r := 1; r < len(dates); r++ {
			if bucket(r) < bucket(r-1) {
				t.Errorf("k=%d: bucket decreased from %d to %d at date %d", k, bucket(r-1), bucket(r), dates[r])
			}
		}
		cuts := checkCutsAgainstBuckets(t, fmt.Sprintf("k=%d", k), log, k)
		if first, last := shardOf(cuts, 0), shardOf(cuts, len(dates)-1); k > 1 && first == last {
			t.Errorf("k=%d: extreme dates collapsed into one shard %d (cuts %v)", k, first, cuts)
		}
	}
}

// TestJoinMiningMatchesSingleLog is the mining differential for a Join:
// two deployments holding contiguous slices of one log over the same
// metadata mine the templates, and count the statistics, of a single
// engine over the whole log — exact supports summed over the shard
// engines, estimates from the merged log over shard 0's tables.
func TestJoinMiningMatchesSingleLog(t *testing.T) {
	ds, _ := singleEngine(t, 1)
	log := ds.Log()
	var rowsA, rowsB []int
	for r := 0; r < log.NumRows(); r++ {
		if r < log.NumRows()/3 {
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
	opt := mine.DefaultOptions()
	opt.MaxLength = 3
	for _, algo := range []string{mine.AlgoOneWay, mine.AlgoBridge(2)} {
		want, err := mine.Run(algo, query.NewEvaluator(ds.DB), graph(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			fopt := opt
			fopt.Parallelism = par
			got, err := f.MineTemplates(algo, fopt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Templates, want.Templates) {
				t.Errorf("%s j=%d: mined %d templates, want %d", algo, par, len(got.Templates), len(want.Templates))
			}
			if got.Stats.CandidatesGenerated != want.Stats.CandidatesGenerated ||
				got.Stats.SupportQueries != want.Stats.SupportQueries ||
				got.Stats.CacheHits != want.Stats.CacheHits ||
				got.Stats.Skipped != want.Stats.Skipped {
				t.Errorf("%s j=%d: stats differ:\n got %+v\nwant %+v", algo, par, got.Stats, want.Stats)
			}
		}
	}
}
