package query_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// pairsFixture generates the Tiny hospital of seed 1 with its groups, and
// returns it with the catalog's closed path templates. Tiny's log names
// only about 130 patients, so the fixture's log has 1,100 more accesses
// spliced in after its first 100 rows, each by a user of a random row to a
// patient no event names: a closed plan compiled from the user end then
// numbers more than 1,024 patient targets and visits its pairs in two
// blocks, with real patients in both.
func pairsFixture(t *testing.T) (*relation.Database, []pathmodel.Path) {
	t.Helper()
	cfg := ehr.Tiny()
	cfg.Seed = 1
	ds := ehr.Generate(cfg)
	h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
	ds.DB.AddTable(h.Table("Groups"))
	src := ds.DB.MustTable(pathmodel.LogTable)
	lidCol, _ := src.ColumnIndex(pathmodel.LogIDColumn)
	pi, _ := src.ColumnIndex(pathmodel.LogPatientColumn)
	log := relation.NewTable(pathmodel.LogTable, src.Columns()...)
	r := rand.New(rand.NewSource(1))
	for i := range src.NumRows() {
		if i == 100 {
			for k := range 1100 {
				row := slices.Clone(src.Row(r.Intn(src.NumRows())))
				row[lidCol] = relation.Int(int64(1<<32 + k))
				row[pi] = relation.Int(int64(2_000_000 + k))
				log.Append(row...)
			}
		}
		log.Append(src.Row(i)...)
	}
	ds.DB.AddTable(log)
	var closed []pathmodel.Path
	for _, tpl := range explain.Handcrafted(true, true).All() {
		if pt, ok := tpl.(*explain.PathTemplate); ok && len(pt.Decorations) == 0 {
			closed = append(closed, pt.Path)
		}
	}
	return ds.DB, closed
}

// randomCuts returns k ranges partitioning [0, n) at random cut points;
// some ranges may be empty.
func randomCuts(r *rand.Rand, n, k int) [][2]int {
	cuts := []int{0, n}
	for range k - 1 {
		cuts = append(cuts, r.Intn(n+1))
	}
	slices.Sort(cuts)
	var out [][2]int
	for i := 0; i+1 < len(cuts); i++ {
		out = append(out, [2]int{cuts[i], cuts[i+1]})
	}
	return out
}

// checkFactorisedSupport asserts, for each path on ev, that the whole-log
// Support (counted over pairs) equals the sum of SupportRange over random
// partitions into 1, 3 and 17 ranges (the 3- and 17-way sums counted row by
// row) and the nested join's count, and that a fresh evaluator agrees.
func checkFactorisedSupport(t *testing.T, r *rand.Rand, ev *query.Evaluator, when string, paths []pathmodel.Path) {
	t.Helper()
	n := ev.Log().NumRows()
	fresh := query.NewEvaluator(ev.Database())
	for _, p := range paths {
		want := popcount(ev.ScanRows(p))
		pp := ev.Prepare(p)
		if got := pp.Support(); got != want {
			t.Errorf("%s, %s: Support = %d, nested join = %d", when, p, got, want)
		}
		for _, k := range []int{1, 3, 17} {
			sum := 0
			for _, rg := range randomCuts(r, n, k) {
				sum += pp.SupportRange(rg[0], rg[1])
			}
			if sum != want {
				t.Errorf("%s, %s: %d ranges sum to %d, nested join = %d", when, p, k, sum, want)
			}
		}
		if got := fresh.Support(p); got != want {
			t.Errorf("%s, %s: a fresh evaluator's Support = %d, nested join = %d", when, p, got, want)
		}
	}
}

// TestPairSupportFactorises pins whole-log support over (patient, user)
// pairs to the row-by-row forms: open plans in both orientations, closed
// forward plans, and closed plans compiled in reverse orientation, whose
// targets are the log's more than 1,024 patients, so their pairs are
// visited in several blocks. It repeats the check after log rows are
// appended, some joining known pairs and some making new ones, on the same
// evaluators (whose pair column extends) and on fresh ones.
func TestPairSupportFactorises(t *testing.T) {
	db, closed := pairsFixture(t)
	log := db.MustTable(pathmodel.LogTable)
	if n := log.NumDistinct(pathmodel.LogPatientColumn); n <= 1024 {
		t.Fatalf("fixture has %d patients; reverse closed plans need more than 1,024 targets", n)
	}
	var forward, reverse []pathmodel.Path
	for _, p := range closed {
		b := backward(t, p)
		forward = append(forward, p)
		forward = append(forward, openPrefixes(p)...)
		reverse = append(reverse, b)
		reverse = append(reverse, openPrefixes(b)...)
	}
	// A plan takes the orientation of the first path prepared for its
	// condition set, so each orientation gets its own engine.
	evFwd, evRev := query.NewEvaluator(db), query.NewEvaluator(db)
	r := rand.New(rand.NewSource(1))
	checkFactorisedSupport(t, r, evFwd, "forward", forward)
	checkFactorisedSupport(t, r, evRev, "reverse", reverse)

	lidCol, _ := log.ColumnIndex(pathmodel.LogIDColumn)
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	ui, _ := log.ColumnIndex(pathmodel.LogUserColumn)
	n := log.NumRows()
	lid := int64(0)
	for i := range n {
		lid = max(lid, log.Row(i)[lidCol].Int)
	}
	for i := range 64 {
		row := slices.Clone(log.Row(r.Intn(n)))
		lid++
		row[lidCol] = relation.Int(lid)
		switch i % 3 {
		case 1: // a known patient with a user drawn from another row
			row[ui] = log.Row(r.Intn(n))[ui]
		case 2: // a known user and a patient no row has
			row[pi] = relation.Int(1_000_000 + int64(i))
		}
		log.Append(row...)
	}
	checkFactorisedSupport(t, r, evFwd, "forward after append", forward)
	checkFactorisedSupport(t, r, evRev, "reverse after append", reverse)
}

// TestDuplicateRowAddsItsVerdict is the law of a factorised log: an
// undecorated template's verdict is a function of the row's (patient,
// user) pair, so duplicating a log row under a fresh Lid raises the
// template's support by exactly the row's own verdict.
func TestDuplicateRowAddsItsVerdict(t *testing.T) {
	db, closed := pairsFixture(t)
	log := db.MustTable(pathmodel.LogTable)
	lidCol, _ := log.ColumnIndex(pathmodel.LogIDColumn)
	ev := query.NewEvaluator(db)
	r := rand.New(rand.NewSource(2))
	lid := int64(1 << 40)
	sawTrue, sawFalse := false, false
	for _, p := range closed {
		paths := append([]pathmodel.Path{p}, openPrefixes(p)...)
		for range 2 {
			src := r.Intn(log.NumRows())
			before := make([]int, len(paths))
			verdict := make([]bool, len(paths))
			for i, q := range paths {
				before[i] = ev.Support(q)
				verdict[i] = engineRows(ev, q)[src]
			}
			row := slices.Clone(log.Row(src))
			lid++
			row[lidCol] = relation.Int(lid)
			log.Append(row...)
			for i, q := range paths {
				want := before[i]
				if verdict[i] {
					want++
					sawTrue = true
				} else {
					sawFalse = true
				}
				if got := ev.Support(q); got != want {
					t.Errorf("%s: duplicating row %d (verdict %v) moved support %d -> %d", q, src, verdict[i], before[i], got)
				}
			}
		}
	}
	if !sawTrue || !sawFalse {
		t.Errorf("law exercised only one verdict (true seen %v, false seen %v)", sawTrue, sawFalse)
	}
}
