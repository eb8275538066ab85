package query

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/pathmodel"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// memoDB builds a tiny database for a bridged closed path: A(P, D) fans
// patients out to doctors and the bridge M(F, T) translates doctors into
// audit ids. Log rows 0-2 are explained; row 3's user is not patient 2's
// doctor and row 4's user is in no table.
func memoDB() *relation.Database {
	db := relation.NewDatabase()
	log := relation.NewTable(pathmodel.LogTable,
		pathmodel.LogIDColumn, pathmodel.LogDateColumn,
		pathmodel.LogUserColumn, pathmodel.LogPatientColumn)
	for i, pu := range [][2]int64{{100, 1}, {200, 2}, {300, 3}, {100, 2}, {999, 1}} {
		log.Append(relation.Int(int64(i)), relation.Int(1),
			relation.Int(pu[0]), relation.Int(pu[1]))
	}
	db.AddTable(log)

	a := relation.NewTable("A", "P", "D")
	for _, pd := range [][2]int64{{1, 10}, {2, 20}, {3, 30}, {1, 30}} {
		a.Append(relation.Int(pd[0]), relation.Int(pd[1]))
	}
	db.AddTable(a)

	m := relation.NewTable("M", "F", "T")
	for _, ft := range [][2]int64{{10, 100}, {20, 200}, {30, 300}} {
		m.Append(relation.Int(ft[0]), relation.Int(ft[1]))
	}
	db.AddTable(m)
	return db
}

// memoClosedPath is Start -> A.P, A.D -> End via M: compiled to
// [opMap A(P->D), opBridge M(F->T), opClose].
func memoClosedPath(t *testing.T) pathmodel.Path {
	t.Helper()
	attr := func(t, c string) schemagraph.Attr { return schemagraph.Attr{Table: t, Column: c} }
	bridge := &schemagraph.Bridge{Table: "M", FromColumn: "F", ToColumn: "T"}
	p, ok := pathmodel.Start(schemagraph.Edge{
		From: pathmodel.StartAttr(), To: attr("A", "P"), Kind: schemagraph.KeyFK})
	if !ok {
		t.Fatal("start edge rejected")
	}
	p, ok = p.Append(schemagraph.Edge{
		From: attr("A", "D"), To: pathmodel.EndAttr(),
		Kind: schemagraph.KeyFK, Via: bridge})
	if !ok {
		t.Fatal("close edge rejected")
	}
	return p
}

// TestMemoGenerationWrap puts the cursor's memo generation one step from
// its limit, so the next evaluation's block wraps it. Every memo slot is
// first forged to read "generation 1: reaches every target" — what a
// long-lived cursor could hold from its very first block — so the wrap must
// really wipe the memos: restarting the count over stale stamps would
// revive them as current sets and explain rows 3 and 4.
func TestMemoGenerationWrap(t *testing.T) {
	ev := NewEvaluator(memoDB())
	pp := ev.Prepare(memoClosedPath(t))
	want := pp.ExplainedBools()
	if !reflect.DeepEqual(want, []bool{true, true, true, false, false}) {
		t.Fatalf("ExplainedBools = %v before the wrap", want)
	}
	forged := 0
	for _, m := range ev.scratch.memo {
		for v := range m.stamp {
			m.stamp[v] = 1
			forged++
		}
		for i := range m.sets {
			m.sets[i] = ^uint64(0)
		}
	}
	if forged == 0 {
		t.Fatal("no memo slot to forge")
	}
	ev.scratch.gen = genLimit - 1
	if got := pp.ExplainedBools(); !reflect.DeepEqual(got, want) {
		t.Errorf("ExplainedBools across the generation wrap = %v, want %v", got, want)
	}
	if g := ev.scratch.gen; g == 0 || g >= genLimit-1 {
		t.Errorf("generation = %d after the wrap, want a small restart", g)
	}
	if got := pp.Support(); got != 3 {
		t.Errorf("Support after the wrap = %d, want 3", got)
	}
}

// blocksDB builds a hospital whose log has 3,000 distinct users, so one
// call over the whole log numbers three blocks of targets. A(P, D) gives
// each patient three doctors, M(F, T) gives each doctor six audit ids and
// B(P, U) gives each patient eight users directly; half the rows take a
// user their patient reaches through A and M, the other half each take
// one user of 0..2,999.
func blocksDB() *relation.Database {
	const patients, doctors, users = 400, 300, 3000
	r := rand.New(rand.NewSource(7))
	db := relation.NewDatabase()
	a := relation.NewTable("A", "P", "D")
	reach := make([][]int64, patients)
	via := make([][]int64, doctors)
	m := relation.NewTable("M", "F", "T")
	for d := range via {
		for k := 0; k < 6; k++ {
			u := r.Int63n(users)
			via[d] = append(via[d], u)
			m.Append(relation.Int(int64(d)), relation.Int(u))
		}
	}
	b := relation.NewTable("B", "P", "U")
	for p := range reach {
		for k := 0; k < 3; k++ {
			d := r.Intn(doctors)
			a.Append(relation.Int(int64(p)), relation.Int(int64(d)))
			reach[p] = append(reach[p], via[d]...)
		}
		for k := 0; k < 8; k++ {
			b.Append(relation.Int(int64(p)), relation.Int(r.Int63n(users)))
		}
	}
	log := relation.NewTable(pathmodel.LogTable,
		pathmodel.LogIDColumn, pathmodel.LogDateColumn,
		pathmodel.LogUserColumn, pathmodel.LogPatientColumn)
	for i := 0; i < 2*users; i++ {
		p := r.Intn(patients)
		u := int64(i / 2)
		if i%2 == 0 {
			u = reach[p][r.Intn(len(reach[p]))]
		}
		log.Append(relation.Int(int64(i)), relation.Int(1), relation.Int(u), relation.Int(int64(p)))
	}
	for _, t := range []*relation.Table{log, a, m, b} {
		db.AddTable(t)
	}
	return db
}

// TestMultiBlockDifferential evaluates closed plans whose calls number more
// than one block of targets — the bridged chain Start -> A.P, A.D -> End
// via M and the direct hop Start -> B.P, B.U -> End — and pins their masks,
// sharded over 1, 3 and 17 ranges on one cursor, to the index-free nested
// join, and Support to the mask's popcount.
func TestMultiBlockDifferential(t *testing.T) {
	db := blocksDB()
	ev := NewEvaluator(db)
	users := make(map[relation.Value]bool)
	_, logUsers := ev.logColumns()
	for _, u := range logUsers {
		users[u] = true
	}
	if len(users) <= 2*blockSize {
		t.Fatalf("%d distinct users, want more than %d for three blocks", len(users), 2*blockSize)
	}
	attr := func(t, c string) schemagraph.Attr { return schemagraph.Attr{Table: t, Column: c} }
	direct, ok := pathmodel.Start(schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("B", "P"), Kind: schemagraph.KeyFK})
	if ok {
		direct, ok = direct.Append(schemagraph.Edge{From: attr("B", "U"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK})
	}
	if !ok {
		t.Fatal("direct path rejected")
	}
	n := ev.Log().NumRows()
	for _, p := range []pathmodel.Path{memoClosedPath(t), direct} {
		want := ev.ScanRows(p)
		pop := 0
		for _, b := range want {
			if b {
				pop++
			}
		}
		if pop == 0 || pop == n {
			t.Fatalf("%s: nested join explains %d of %d rows; the fixture is degenerate", p, pop, n)
		}
		pp := ev.Prepare(p)
		for _, shards := range []int{1, 3, 17} {
			mask := bitset.New(n)
			for w := 0; w < shards; w++ {
				pp.ExplainedRange(n*w/shards, n*(w+1)/shards, mask)
			}
			if got := Bools(mask); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d shards: mask differs from the nested join", p, shards)
			}
		}
		if got := pp.Support(); got != pop {
			t.Errorf("%s: Support = %d, nested join = %d", p, got, pop)
		}
	}
}
