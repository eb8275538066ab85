package pathmodel

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/schemagraph"
)

func TestCompareOpEval(t *testing.T) {
	cases := []struct {
		op   CompareOp
		want [3]bool // results for cmp = -1, 0, +1
	}{
		{OpLT, [3]bool{true, false, false}},
		{OpLE, [3]bool{true, true, false}},
		{OpEQ, [3]bool{false, true, false}},
		{OpGE, [3]bool{false, true, true}},
		{OpGT, [3]bool{false, false, true}},
	}
	for _, c := range cases {
		for i, cmp := range []int{-1, 0, 1} {
			if got := c.op.Eval(cmp); got != c.want[i] {
				t.Errorf("%v.Eval(%d) = %v, want %v", c.op, cmp, got, c.want[i])
			}
		}
	}
	if CompareOp(99).Eval(0) {
		t.Error("unknown op evaluated true")
	}
}

func TestCompareOpString(t *testing.T) {
	want := map[CompareOp]string{OpLT: "<", OpLE: "<=", OpEQ: "=", OpGE: ">=", OpGT: ">"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
}

func TestDecorationMaxInst(t *testing.T) {
	v := relation.Int(1)
	cases := []struct {
		d    Decoration
		want int
	}{
		{Decoration{Left: Ref{Inst: 2, Col: "A"}, Right: Ref{Inst: 1, Col: "B"}}, 2},
		{Decoration{Left: Ref{Inst: 1, Col: "A"}, Right: Ref{Inst: 3, Col: "B"}}, 3},
		{Decoration{Left: Ref{Inst: 2, Col: "A"}, Const: &v, Right: Ref{Inst: 9, Col: "ignored"}}, 2},
	}
	for _, c := range cases {
		if got := c.d.MaxInst(); got != c.want {
			t.Errorf("MaxInst(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestNewDecoratedPathValidation(t *testing.T) {
	base := apptPath(t)

	// Valid decoration on instance 1.
	dp := NewDecoratedPath(base, Decoration{
		Left: Ref{Inst: 1, Col: "Date"}, Op: OpLE, Right: Ref{Inst: 0, Col: LogDateColumn},
	})
	if dp.Length() != base.Length() {
		t.Errorf("Length = %d, want %d", dp.Length(), base.Length())
	}

	assertPanics(t, "open base", func() {
		open, _ := Start(edge(StartAttr(), attr("Appointments", "Patient")))
		NewDecoratedPath(open)
	})
	assertPanics(t, "missing instance", func() {
		NewDecoratedPath(base, Decoration{Left: Ref{Inst: 5, Col: "X"}, Op: OpEQ, Right: Ref{Inst: 0, Col: "Lid"}})
	})
	assertPanics(t, "negative instance", func() {
		NewDecoratedPath(base, Decoration{Left: Ref{Inst: -1, Col: "X"}, Op: OpEQ, Right: Ref{Inst: 0, Col: "Lid"}})
	})
}

func TestNewDecoratedPathReversesBackwardBase(t *testing.T) {
	fwd := apptPath(t)
	edges := fwd.Edges()
	b, ok := StartAt(ReverseEdge(edges[1]), LogUserColumn)
	if !ok {
		t.Fatal("backward start failed")
	}
	b, ok = b.Append(ReverseEdge(edges[0]))
	if !ok {
		t.Fatal("backward close failed")
	}
	dp := NewDecoratedPath(b)
	if !dp.Base.Forward() {
		t.Error("decorated base kept backward orientation")
	}
}

func TestDecoratedSQLAndString(t *testing.T) {
	base := apptPath(t)
	day := relation.Date(3)
	dp := NewDecoratedPath(base,
		Decoration{Left: Ref{Inst: 1, Col: "Date"}, Op: OpLE, Right: Ref{Inst: 0, Col: LogDateColumn}},
		Decoration{Left: Ref{Inst: 0, Col: LogDateColumn}, Op: OpLT, Const: &day},
	)
	sql := dp.SQL()
	for _, want := range []string{"Appointments1.Date <= L.Date", "L.Date <"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
	s := dp.String()
	if !strings.Contains(s, "AND Appointments1.Date <= L.Date") {
		t.Errorf("String = %q", s)
	}

	// String constants are quoted in SQL.
	dept := relation.String("Pediatrics")
	dp2 := NewDecoratedPath(base, Decoration{Left: Ref{Inst: 1, Col: "Date"}, Op: OpEQ, Const: &dept})
	if !strings.Contains(dp2.SQL(), "'Pediatrics'") {
		t.Errorf("string constant not quoted:\n%s", dp2.SQL())
	}

	// No decorations: SQL equals the base SQL.
	if NewDecoratedPath(base).SQL() != base.SQL() {
		t.Error("undecorated SQL differs from base")
	}
}

// TestLogOrder pins the log-order pseudo-column: its SQL is the (Date, Lid)
// row value with both columns selected by the Log2 subquery, PinsPast
// accepts Log2 < L and its mirror only, and a LogOrder that is not compared
// with a Log instance's LogOrder does not build.
func TestLogOrder(t *testing.T) {
	self := func(a schemagraph.Attr) schemagraph.Edge {
		return schemagraph.Edge{From: a, To: a, Kind: schemagraph.SelfJoin}
	}
	base, _ := Start(self(StartAttr()))
	base, _ = base.Append(self(EndAttr()))
	past := Decoration{Left: Ref{Inst: 1, Col: LogOrder}, Op: OpLT, Right: Ref{Inst: 0, Col: LogOrder}}
	sql := NewDecoratedPath(base, past).SQL()
	for _, want := range []string{"(SELECT DISTINCT Patient, User, Date, Lid FROM Log) Log2", "(Log2.Date, Log2.Lid) < (L.Date, L.Lid)"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
	mirrored := Decoration{Left: Ref{Inst: 0, Col: LogOrder}, Op: OpGT, Right: Ref{Inst: 1, Col: LogOrder}}
	if !past.PinsPast(1) || !mirrored.PinsPast(1) || past.PinsPast(0) {
		t.Error("PinsPast misses Log2 < L or its mirror, or pins L itself")
	}
	for _, d := range []Decoration{
		{Left: Ref{Inst: 1, Col: LogOrder}, Op: OpGT, Right: Ref{Inst: 0, Col: LogOrder}},
		{Left: Ref{Inst: 1, Col: LogIDColumn}, Op: OpLT, Right: Ref{Inst: 0, Col: LogIDColumn}},
	} {
		if d.PinsPast(1) {
			t.Errorf("%v pins Log2 to the past", d)
		}
	}
	assertPanics(t, "LogOrder against a Date", func() {
		NewDecoratedPath(base, Decoration{Left: Ref{Inst: 1, Col: LogOrder}, Op: OpLT, Right: Ref{Inst: 0, Col: LogDateColumn}})
	})
	day := relation.Date(3)
	assertPanics(t, "LogOrder against a constant", func() {
		NewDecoratedPath(base, Decoration{Left: Ref{Inst: 1, Col: LogOrder}, Op: OpLT, Const: &day})
	})
	assertPanics(t, "LogOrder on an event table", func() {
		NewDecoratedPath(apptPath(t), Decoration{Left: Ref{Inst: 1, Col: LogOrder}, Op: OpLT, Right: Ref{Inst: 0, Col: LogOrder}})
	})
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
