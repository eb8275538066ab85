package pathmodel

import (
	"fmt"

	"repro/internal/relation"
)

// CompareOp is a comparison operator usable in a decoration condition
// (Definition 1 allows theta in {<, <=, =, >=, >}).
type CompareOp uint8

// Comparison operators.
const (
	OpLT CompareOp = iota
	OpLE
	OpEQ
	OpGE
	OpGT
)

func (op CompareOp) String() string {
	switch op {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "="
	case OpGE:
		return ">="
	case OpGT:
		return ">"
	}
	return fmt.Sprintf("CompareOp(%d)", op)
}

// Eval applies the operator to an ordered comparison result (-1, 0, +1).
func (op CompareOp) Eval(cmp int) bool {
	switch op {
	case OpLT:
		return cmp < 0
	case OpLE:
		return cmp <= 0
	case OpEQ:
		return cmp == 0
	case OpGE:
		return cmp >= 0
	case OpGT:
		return cmp > 0
	}
	return false
}

// Ref names one attribute of one path instance (0 is the audited log
// tuple).
type Ref struct {
	Inst int
	Col  string
}

// LogOrder is the pseudo-column of a Log instance that orders accesses by
// (Date, Lid), compared lexicographically: the log order of an append-only
// access log, in which a later Date, or the same Date and a later Lid, is
// later. A decoration may compare two Log instances' LogOrder, as the
// paper's repeat-access template pins its Log2 before the audited row L;
// its SQL is the row-value comparison (Log2.Date, Log2.Lid) < (L.Date, L.Lid).
const LogOrder = "(Date, Lid)"

// cols returns the table columns r reads: Date and Lid for LogOrder.
func (r Ref) cols() []string {
	if r.Col == LogOrder {
		return []string{LogDateColumn, LogIDColumn}
	}
	return []string{r.Col}
}

// Decoration is one additional selection condition layered on a simple
// path (Definition 3): either a comparison between two bound attributes, or
// between a bound attribute and a constant (Const non-nil).
type Decoration struct {
	Left  Ref
	Op    CompareOp
	Right Ref
	Const *relation.Value // when non-nil, Right is ignored
}

// PinsPast reports whether d confines log instance inst to accesses
// strictly before the audited row in log order: inst's LogOrder < L's, or
// L's > inst's. Appending later accesses cannot change what such an
// instance binds.
func (d Decoration) PinsPast(inst int) bool {
	if d.Const != nil || d.Left.Col != LogOrder || d.Right.Col != LogOrder {
		return false
	}
	return d.Op == OpLT && d.Left.Inst == inst && d.Right.Inst == 0 ||
		d.Op == OpGT && d.Left.Inst == 0 && d.Right.Inst == inst
}

// MaxInst returns the largest instance index the decoration references.
func (d Decoration) MaxInst() int {
	if d.Const != nil {
		return d.Left.Inst
	}
	if d.Right.Inst > d.Left.Inst {
		return d.Right.Inst
	}
	return d.Left.Inst
}

// DecoratedPath is a simple explanation path with additional selection
// conditions. Per Definition 3, a decorated template always explains a
// subset of the accesses its base path explains.
type DecoratedPath struct {
	Base        Path
	Decorations []Decoration
}

// NewDecoratedPath wraps a closed base path with decorations, reversing a
// backward base path into forward orientation. It panics on an open base
// path, on a decoration referencing an instance the path does not have, and
// on a LogOrder reference that is not on a Log instance or is not compared
// with another LogOrder — decorated templates are curated, so these are
// programming errors.
func NewDecoratedPath(base Path, decorations ...Decoration) DecoratedPath {
	if !base.Closed() {
		panic("pathmodel: decorated path requires a closed base path")
	}
	if !base.Forward() {
		base = base.Reverse()
	}
	for _, d := range decorations {
		if d.MaxInst() >= len(base.Instances()) || d.Left.Inst < 0 ||
			(d.Const == nil && d.Right.Inst < 0) {
			panic(fmt.Sprintf("pathmodel: decoration %v references a missing instance", d))
		}
		if d.Left.Col == LogOrder || d.Const == nil && d.Right.Col == LogOrder {
			insts := base.Instances()
			if d.Const != nil || d.Left.Col != d.Right.Col ||
				insts[d.Left.Inst].Table != LogTable || insts[d.Right.Inst].Table != LogTable {
				panic(fmt.Sprintf("pathmodel: decoration %v compares LogOrder with something other than a Log instance's LogOrder", d))
			}
		}
	}
	return DecoratedPath{Base: base, Decorations: decorations}
}

// Length returns the base path's length; decorations add selectivity, not
// joins.
func (dp DecoratedPath) Length() int { return dp.Base.Length() }

// refLabel renders a Ref using the base path's instance labels, a LogOrder
// as the row value (Inst.Date, Inst.Lid).
func (dp DecoratedPath) refLabel(r Ref) string {
	label := dp.Base.InstLabel(r.Inst)
	if r.Col == LogOrder {
		return "(" + label + "." + LogDateColumn + ", " + label + "." + LogIDColumn + ")"
	}
	return label + "." + r.Col
}

// cond renders decoration d as a condition, a string constant quoted.
func (dp DecoratedPath) cond(d Decoration) string {
	rhs := ""
	if d.Const == nil {
		rhs = dp.refLabel(d.Right)
	} else if rhs = d.Const.String(); d.Const.Kind == relation.KindString {
		rhs = "'" + rhs + "'"
	}
	return dp.refLabel(d.Left) + " " + d.Op.String() + " " + rhs
}

// SQL renders the decorated support query: the base query plus the
// decoration conditions, with every column a decoration reads selected by
// its instance's subquery.
func (dp DecoratedPath) SQL() string {
	extra := make([][]string, len(dp.Base.Instances()))
	var conds []string
	for _, d := range dp.Decorations {
		extra[d.Left.Inst] = append(extra[d.Left.Inst], d.Left.cols()...)
		if d.Const == nil {
			extra[d.Right.Inst] = append(extra[d.Right.Inst], d.Right.cols()...)
		}
		conds = append(conds, dp.cond(d))
	}
	return dp.Base.sql(extra, conds)
}

// String returns a one-line rendering.
func (dp DecoratedPath) String() string {
	s := dp.Base.String()
	for _, d := range dp.Decorations {
		s += " AND " + dp.cond(d)
	}
	return s
}
