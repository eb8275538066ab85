package explain

import (
	"fmt"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// DecoratedTemplate is a Template backed by a decorated path
// (Definition 3): a simple path plus extra selection conditions. It always
// explains a subset of what its base path explains.
type DecoratedTemplate struct {
	TemplateName string
	Decorated    pathmodel.DecoratedPath
	Desc         string

	form *textForm // Desc prepared against Decorated.Base by NewDecoratedTemplate
}

// NewDecoratedTemplate wraps a decorated path as a template.
func NewDecoratedTemplate(name string, dp pathmodel.DecoratedPath, desc string) *DecoratedTemplate {
	return &DecoratedTemplate{TemplateName: name, Decorated: dp, Desc: desc,
		form: newTextForm(name, dp.Length(), desc, dp.Base.Instances())}
}

// Name implements Template.
func (t *DecoratedTemplate) Name() string { return t.TemplateName }

// Length implements Template.
func (t *DecoratedTemplate) Length() int { return t.Decorated.Length() }

// SQL implements Template.
func (t *DecoratedTemplate) SQL() string { return t.Decorated.SQL() }

// Evaluate implements Template.
func (t *DecoratedTemplate) Evaluate(ev *query.Evaluator) []bool {
	return ev.ExplainedRowsDecorated(t.Decorated)
}

// EvaluateRange implements Template. Decorated evaluation is per-row, so the
// range form shards perfectly: disjoint ranges concatenate to exactly the
// full Evaluate result.
func (t *DecoratedTemplate) EvaluateRange(ev *query.Evaluator, lo, hi int) []bool {
	return ev.ExplainedRowsDecoratedRange(t.Decorated, lo, hi)
}

// Render implements Template.
func (t *DecoratedTemplate) Render(ev *query.Evaluator, logRow, limit int, n Namer) []string {
	return renderOnce(t, ev, logRow, limit, n)
}

// DecoratedRepeatAccess builds the paper's decorated repeat-access template
// through the generic decoration machinery: the base simple path
// L.Patient = Log2.Patient AND Log2.User = L.User, decorated with
// Log2.Lid < L.Lid. Lids increase over time in an append-only log, so the
// Lid comparison is the (Date, Lid) temporal order of the specialized
// RepeatAccess template in one condition. The two implementations are
// differentially tested against each other.
func DecoratedRepeatAccess() *DecoratedTemplate {
	start := pathmodel.StartAttr()
	end := pathmodel.EndAttr()
	base := mustPath(
		schemagraph.Edge{From: start, To: start, Kind: schemagraph.SelfJoin},
		schemagraph.Edge{From: end, To: end, Kind: schemagraph.SelfJoin},
	)
	dp := pathmodel.NewDecoratedPath(base, pathmodel.Decoration{
		Left:  pathmodel.Ref{Inst: 1, Col: pathmodel.LogIDColumn},
		Op:    pathmodel.OpLT,
		Right: pathmodel.Ref{Inst: 0, Col: pathmodel.LogIDColumn},
	})
	return NewDecoratedTemplate("repeat-access-decorated", dp,
		"[L.User|user] previously accessed [L.Patient|patient]'s record (on [Log2.Date]).")
}

// DepthRestrictedGroupTemplate builds the §5.3.4 future-work template: the
// collaborative-group explanation restricted to groups at one hierarchy
// depth, controlling the precision/recall trade-off without rebuilding the
// Groups table. eventTable must be a data set A table (Appointments,
// Visits, Documents).
func DepthRestrictedGroupTemplate(name, eventTable, eventNoun string, depth int) *DecoratedTemplate {
	base := GroupTemplate(name+"-base", eventTable, eventNoun).Path
	d := relation.Int(int64(depth))
	dp := pathmodel.NewDecoratedPath(base,
		pathmodel.Decoration{
			Left:  pathmodel.Ref{Inst: 2, Col: "GroupDepth"}, // Groups1
			Op:    pathmodel.OpEQ,
			Const: &d,
		},
		pathmodel.Decoration{
			Left:  pathmodel.Ref{Inst: 3, Col: "GroupDepth"}, // Groups2
			Op:    pathmodel.OpEQ,
			Const: &d,
		},
	)
	doctor := setADoctorColumn(eventTable)
	desc := fmt.Sprintf("[L.Patient|patient] had %s with [%s1.%s|caregiver] on [%s1.Date], and "+
		"[L.User|user] shares a depth-%d collaborative group with them.",
		eventNoun, eventTable, doctor, eventTable, depth)
	return NewDecoratedTemplate(name, dp, desc)
}
