package query_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// popcount returns the number of true rows in a mask.
func popcount(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// engineRows evaluates p's full row mask through the engine: ExplainedRange
// over the whole log for a closed path, ConnectedRows for an open one.
func engineRows(ev *query.Evaluator, p pathmodel.Path) []bool {
	if p.Closed() {
		return ev.ExplainedBools(p)
	}
	return ev.ConnectedBools(p)
}

// shardedRows evaluates closed path p's full row mask as j disjoint ranges
// on concurrently running cloned cursors, all writing one mask: the
// boundaries between the ranges are multiples of 64, as the contract of
// ExplainedRange requires of concurrent writers.
func shardedRows(t *testing.T, ev *query.Evaluator, p pathmodel.Path, j int) []bool {
	t.Helper()
	n := ev.Log().NumRows()
	mask := bitset.New(n)
	var wg sync.WaitGroup
	for w := 0; w < j; w++ {
		lo, hi := n*w/j&^63, n*(w+1)/j&^63
		if w == j-1 {
			hi = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev.Clone().Prepare(p).ExplainedRange(lo, hi, mask)
		}()
	}
	wg.Wait()
	return query.Bools(mask)
}

// TestLazyDifferentialCatalog pins the engine row by row against a second
// algorithm: on three differently seeded hospitals, every template of the
// full hand-crafted catalog must give the same verdict for every log row as
// the index-free nested join (ScanRows) — whole-log masks, masks sharded
// across j ∈ {1, 4} concurrent workers, and supports. It also asserts the
// engine actually consumed postings, so the comparison is not vacuous.
func TestLazyDifferentialCatalog(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
		ds.DB.AddTable(h.Table("Groups"))
		ev := query.NewEvaluator(ds.DB)

		for _, tpl := range explain.Handcrafted(true, true).All() {
			pt, ok := tpl.(*explain.PathTemplate)
			if !ok || len(pt.Decorations) > 0 {
				continue // a decorated template is not its bare path
			}
			want := ev.ScanRows(pt.Path)
			if got := ev.Prepare(pt.Path).Support(); got != popcount(want) {
				t.Errorf("seed %d, %s: Support = %d, nested join = %d", seed, pt.Name(), got, popcount(want))
			}
			for _, j := range []int{1, 4} {
				if got := shardedRows(t, ev, pt.Path, j); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d, %s, j=%d: mask differs from the nested join", seed, pt.Name(), j)
				}
			}
		}
		if ev.PostingsScanned() == 0 {
			t.Errorf("seed %d: engine consumed no postings — differential is vacuous", seed)
		}
	}
}

// TestLazyDifferentialRandomPaths drives the property over random structure:
// three seeds, each seeding a stream of random databases and random path
// walks (the fuzz corpus machinery). The engine's full row mask must equal
// the nested join's, and Support its popcount.
func TestLazyDifferentialRandomPaths(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		paths := 0
		for trial := 0; trial < 60; trial++ {
			data := make([]byte, 64)
			r.Read(data)
			fb := &fuzzBytes{data: data}
			db := fuzzDB(fb)
			p, ok := fuzzPath(fb)
			if !ok {
				continue
			}
			paths++
			ev := query.NewEvaluator(db)
			want := ev.ScanRows(p)
			if got := ev.Support(p); got != popcount(want) {
				t.Fatalf("seed %d trial %d path %q: Support = %d, nested join = %d",
					seed, trial, p.String(), got, popcount(want))
			}
			if got := engineRows(ev, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d trial %d path %q: mask %v, nested join %v",
					seed, trial, p.String(), got, want)
			}
		}
		if paths < 20 {
			t.Fatalf("seed %d: only %d random paths exercised", seed, paths)
		}
	}
}

// fanoutDB builds the early-termination fixture: one audited access, whose
// patient has one matching appointment (doctor 100, the accessing user)
// buried under `extra` non-matching ones, every doctor translating through
// the identity-shaped bridge M into a distinct audit id.
func fanoutDB(extra int) *relation.Database {
	db := relation.NewDatabase()
	log := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
	log.Append(relation.Int(0), relation.Int(1), relation.Int(1100), relation.Int(1))
	db.AddTable(log)

	a := relation.NewTable("A", "P", "D")
	m := relation.NewTable("M", "F", "T")
	a.Append(relation.Int(1), relation.Int(100))
	m.Append(relation.Int(100), relation.Int(1100))
	for i := 0; i < extra; i++ {
		d := relation.Int(int64(101 + i))
		a.Append(relation.Int(1), d)
		m.Append(d, relation.Int(int64(1101+i)))
	}
	db.AddTable(a)
	db.AddTable(m)
	return db
}

// fanoutPath is Start -> A.P, A.D -> End via M over fanoutDB.
func fanoutPath(t *testing.T) pathmodel.Path {
	t.Helper()
	bridge := &schemagraph.Bridge{Table: "M", FromColumn: "F", ToColumn: "T"}
	return mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("A", "P"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr("A", "D"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK, Via: bridge},
	)
}

// TestInstancesLimitBoundsPostings pins the short-circuit contract: with the
// single matching appointment sorting first among 4000 candidates,
// Instances(limit=1) must stop after a handful of postings, while the
// unlimited enumeration of the same row consumes the whole fanout.
func TestInstancesLimitBoundsPostings(t *testing.T) {
	const extra = 4000
	db := fanoutDB(extra)
	p := fanoutPath(t)

	ev := query.NewEvaluator(db)
	got := ev.Instances(p, 0, 1)
	if len(got) != 1 {
		t.Fatalf("Instances(limit=1) returned %d bindings, want 1", len(got))
	}
	if scanned := ev.PostingsScanned(); scanned > 16 {
		t.Errorf("Instances(limit=1) consumed %d postings over a %d-wide hop, want a small constant",
			scanned, extra+1)
	}

	all := query.NewEvaluator(db)
	if n := len(all.Instances(p, 0, extra+10)); n != 1 {
		t.Fatalf("exhaustive Instances returned %d bindings, want 1", n)
	}
	if scanned := all.PostingsScanned(); scanned <= extra {
		t.Errorf("exhaustive Instances consumed only %d postings, want > %d — fixture lost its fanout",
			scanned, extra)
	}
}
