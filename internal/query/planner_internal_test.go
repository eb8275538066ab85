package query

import (
	"reflect"
	"testing"

	"repro/internal/pathmodel"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// plannerDB builds a tiny database whose join structure exercises every
// planner rewrite: A(P, D) fans patients out to doctors, the bridge M(F, T)
// translates doctors but deliberately lacks mappings for some of them
// (dead ends for pruning), and B(U) holds the existence set an open path
// terminates in.
func plannerDB() *relation.Database {
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

	b := relation.NewTable("B", "U")
	b.Append(relation.Int(100))
	db.AddTable(b)
	return db
}

// idOf interns v in ev's dictionary the way the log projections would.
func idOf(ev *Evaluator, v relation.Value) uint32 {
	d := &ev.engine.dict
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.intern(v)
}

func plannerAttr(t, c string) schemagraph.Attr { return schemagraph.Attr{Table: t, Column: c} }

// plannerOpenPath is Start -> A.P, A.D -> B.U via M: compiled declared
// order is [opMap A(P->D), opBridge M(F->T), opExists B(U)].
func plannerOpenPath(t *testing.T) pathmodel.Path {
	t.Helper()
	bridge := &schemagraph.Bridge{Table: "M", FromColumn: "F", ToColumn: "T"}
	p, ok := pathmodel.Start(schemagraph.Edge{
		From: pathmodel.StartAttr(), To: plannerAttr("A", "P"), Kind: schemagraph.KeyFK})
	if !ok {
		t.Fatal("start edge rejected")
	}
	p, ok = p.Append(schemagraph.Edge{
		From: plannerAttr("A", "D"), To: plannerAttr("B", "U"),
		Kind: schemagraph.KeyFK, Via: bridge})
	if !ok {
		t.Fatal("extend edge rejected")
	}
	return p
}

// plannerClosedPath is Start -> A.P, A.D -> End via M: compiled declared
// order is [opMap A(P->D), opBridge M(F->T), opClose].
func plannerClosedPath(t *testing.T) pathmodel.Path {
	t.Helper()
	bridge := &schemagraph.Bridge{Table: "M", FromColumn: "F", ToColumn: "T"}
	p, ok := pathmodel.Start(schemagraph.Edge{
		From: pathmodel.StartAttr(), To: plannerAttr("A", "P"), Kind: schemagraph.KeyFK})
	if !ok {
		t.Fatal("start edge rejected")
	}
	p, ok = p.Append(schemagraph.Edge{
		From: plannerAttr("A", "D"), To: pathmodel.EndAttr(),
		Kind: schemagraph.KeyFK, Via: bridge})
	if !ok {
		t.Fatal("close edge rejected")
	}
	return p
}

// TestPlannerRewritesOpenPlan pins the planner's rewrites on the open
// chain: the trailing opExists is pushed backward (pruning both hops down
// to the values that can reach B), absorbed, and the two surviving pairs
// ops are greedily contracted into one — while feasibleStarts stays
// identical to the declared-order chain's.
func TestPlannerRewritesOpenPlan(t *testing.T) {
	ev := NewEvaluator(plannerDB())
	declared := ev.compile(plannerOpenPath(t))
	planned := ev.planPlan(declared)

	info := planned.info
	if !info.Planned {
		t.Fatal("PlanInfo.Planned = false")
	}
	if info.HopsDeclared != 3 || info.HopsPlanned != 1 {
		t.Errorf("hops = %d -> %d, want 3 -> 1", info.HopsDeclared, info.HopsPlanned)
	}
	if !info.ExistsAbsorbed {
		t.Error("trailing opExists not absorbed")
	}
	if info.Contractions != 1 {
		t.Errorf("contractions = %d, want 1", info.Contractions)
	}
	// Only D=10 maps to the existing user 100: pruning drops A's pairs
	// (2,20), (3,30), (1,30) and M's (20,200), (30,300).
	if info.PairsPruned != 5 {
		t.Errorf("pairs pruned = %d, want 5", info.PairsPruned)
	}
	if got, want := feasibleStarts(planned), feasibleStarts(declared); !reflect.DeepEqual(got, want) {
		t.Errorf("feasibleStarts differ: planned %v, declared %v", got, want)
	}
	if f := feasibleStarts(planned); len(f) != 1 || !f.has(idOf(ev, relation.Int(1))) {
		t.Errorf("feasible starts = %v, want {1}", f)
	}
}

// TestPlannerRewritesClosedPlan pins the closed chain: the boundary before
// opClose stays unconstrained (the audited log is not a plan dependency, so
// pruning must never consult its User values), the two hops contract, and
// propagate yields identical reach sets for every start value — present in
// the data or not.
func TestPlannerRewritesClosedPlan(t *testing.T) {
	ev := NewEvaluator(plannerDB())
	declared := ev.compile(plannerClosedPath(t))
	planned := ev.planPlan(declared)

	if !planned.closed {
		t.Fatal("planned plan lost closed state")
	}
	info := planned.info
	if info.HopsDeclared != 3 || info.HopsPlanned != 2 {
		t.Errorf("hops = %d -> %d, want 3 -> 2 (composed map + opClose)", info.HopsDeclared, info.HopsPlanned)
	}
	if info.Contractions != 1 {
		t.Errorf("contractions = %d, want 1", info.Contractions)
	}
	// Every doctor has a bridge mapping, so nothing is prunable — and the
	// final boundary must not have been constrained by log users (user 999
	// appears in the log but in no table).
	if info.PairsPruned != 0 {
		t.Errorf("pairs pruned = %d, want 0 on a fully-connected closed chain", info.PairsPruned)
	}
	for _, start := range []int64{1, 2, 3, 4, 100} {
		sv := idOf(ev, relation.Int(start))
		got, want := propagate(planned, sv, nil), propagate(declared, sv, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("propagate(%d): planned %v, declared %v", start, got, want)
		}
	}
}

// TestPlannerDisabledKeepsDeclaredOrder: the oracle flag makes Prepare
// publish compile's output verbatim, with a zero PlanInfo.
func TestPlannerDisabledKeepsDeclaredOrder(t *testing.T) {
	ev := NewEvaluator(plannerDB())
	ev.SetPlannerEnabled(false)
	if ev.PlannerEnabled() {
		t.Fatal("PlannerEnabled after SetPlannerEnabled(false)")
	}
	pp := ev.Prepare(plannerOpenPath(t))
	if info := pp.PlanInfo(); info != (PlanInfo{}) {
		t.Errorf("declared-order plan has nonzero PlanInfo %+v", info)
	}
	if got := len(pp.ent.pl.ops); got != 3 {
		t.Errorf("declared-order plan has %d ops, want 3", got)
	}
	if st := ev.PlanCacheStats(); st.PlansPlanned != 0 {
		t.Errorf("PlansPlanned = %d with planner disabled", st.PlansPlanned)
	}

	ev.SetPlannerEnabled(true)
	pp = ev.Prepare(plannerOpenPath(t))
	if !pp.PlanInfo().Planned {
		t.Error("re-enabling the planner did not replan the cached path")
	}
	st := ev.PlanCacheStats()
	if st.PlansPlanned != 1 || st.PlanContractions != 1 || st.PlanPairsPruned != 5 {
		t.Errorf("stats = %+v, want 1 plan, 1 contraction, 5 pairs pruned", st)
	}
}

// TestSupportReusesFeasMemo is the counter-based regression for the open
// path Support memo: Support must run its own backward pass while the
// shared memo is cold (never pinning a set for what may be a mined
// candidate), and must reuse the memo — zero further backward passes — once
// a ConnectedRange caller has populated it.
func TestSupportReusesFeasMemo(t *testing.T) {
	ev := NewEvaluator(plannerDB())
	// The feas memo and backward-pass counter are materialized-path
	// observables; lazy execution answers open paths demand-driven without
	// touching either, so this test pins the oracle mode.
	ev.SetLazyEval(false)
	pp := ev.Prepare(plannerOpenPath(t))
	eng := ev.engine

	base := eng.backwardPasses.Value()
	s1 := pp.Support()
	s2 := pp.Support()
	if got := eng.backwardPasses.Value() - base; got != 2 {
		t.Errorf("cold-memo Support ran %d backward passes over 2 calls, want 2 (call-local)", got)
	}
	if pp.ent.feasDone.Load() {
		t.Error("Support pinned the shared feas memo")
	}

	rows := pp.ConnectedRows()
	if got := eng.backwardPasses.Value() - base; got != 3 {
		t.Errorf("ConnectedRows brought backward passes to %d, want 3", got)
	}
	if !pp.ent.feasDone.Load() {
		t.Fatal("ConnectedRows did not publish the feas memo")
	}

	s3 := pp.Support()
	s4 := pp.Support()
	if got := eng.backwardPasses.Value() - base; got != 3 {
		t.Errorf("warm-memo Support reran the backward pass (total %d, want 3)", got)
	}

	pop := 0
	for _, b := range rows {
		if b {
			pop++
		}
	}
	for i, s := range []int{s1, s2, s3, s4} {
		if s != pop {
			t.Errorf("Support call %d = %d, want mask popcount %d", i+1, s, pop)
		}
	}
}

// TestMemoGenerationWrap puts the cursor's memo generation one step from
// its limit, so the next evaluation's first group wraps it. Every memo entry
// is first forged to read "generation 1: no witness" — what a long-lived
// cursor could hold from its very first group — so the wrap must really wipe
// the memos: restarting the count over stale stamps would revive them as
// current verdicts.
func TestMemoGenerationWrap(t *testing.T) {
	ev := NewEvaluator(plannerDB())
	pp := ev.Prepare(plannerClosedPath(t))
	want := pp.ExplainedRows()
	if !reflect.DeepEqual(want, []bool{true, true, true, false, false}) {
		t.Fatalf("ExplainedRows = %v before the wrap", want)
	}
	for _, m := range ev.scratch.memo {
		for v := range m {
			m[v] = 1 << 1
		}
	}
	ev.scratch.gen = genLimit - 1
	if got := pp.ExplainedRows(); !reflect.DeepEqual(got, want) {
		t.Errorf("ExplainedRows across the generation wrap = %v, want %v", got, want)
	}
	if g := ev.scratch.gen; g == 0 || g >= genLimit-1 {
		t.Errorf("generation = %d after the wrap, want a small restart", g)
	}
	if got := pp.Support(); got != 3 {
		t.Errorf("Support after the wrap = %d, want 3", got)
	}
}
