package experiments

import (
	"repro/internal/bitset"
	"repro/internal/explain"
	"repro/internal/pathmodel"
	"repro/internal/query"
)

// scores holds the evaluation measures of §5.3.2 for one template or
// template set, with the counts they divide:
//
//	recall            = |real accesses explained| / |real log|
//	precision         = |real accesses explained| / |real+fake accesses explained|
//	normalized recall = |real accesses explained| / |real accesses with events|
type scores struct {
	Precision        float64
	Recall           float64
	NormalizedRecall float64

	RealExplained int
	FakeExplained int
	RealTotal     int
	RealWithEvent int
}

// score scores an explanation mask over a combined real+fake log whose
// first realRows rows are the real accesses (accesslog.Combine appends
// them first). hasEvent marks, over the same rows, the accesses whose
// patient has an event; when it is nil, normalized recall equals recall.
// It panics when realRows or hasEvent does not fit the mask.
func score(explained *bitset.Bits, realRows int, hasEvent *bitset.Bits) scores {
	if realRows < 0 || realRows > explained.Len() {
		panic("experiments: real row count outside the mask")
	}
	if hasEvent != nil && hasEvent.Len() != explained.Len() {
		panic("experiments: hasEvent length mismatch")
	}
	s := scores{RealTotal: realRows}
	for r := range realRows {
		if explained.Get(r) {
			s.RealExplained++
		}
		if hasEvent == nil || hasEvent.Get(r) {
			s.RealWithEvent++
		}
	}
	s.FakeExplained = explained.Count() - s.RealExplained
	if s.RealTotal > 0 {
		s.Recall = float64(s.RealExplained) / float64(s.RealTotal)
	}
	if s.RealExplained+s.FakeExplained > 0 {
		s.Precision = float64(s.RealExplained) / float64(s.RealExplained+s.FakeExplained)
	}
	if s.RealWithEvent > 0 {
		s.NormalizedRecall = float64(s.RealExplained) / float64(s.RealWithEvent)
	}
	return s
}

// row labels s as a precision/recall table row.
func (s scores) row(label string) PRRow {
	return PRRow{Label: label, Precision: s.Precision, Recall: s.Recall, NormalizedRecall: s.NormalizedRecall}
}

// fraction returns the fraction of set bits in m (recall over a purely real
// log); a nil or empty mask yields 0.
func fraction(m *bitset.Bits) float64 {
	if m == nil || m.Len() == 0 {
		return 0
	}
	return float64(m.Count()) / float64(m.Len())
}

// templateMask evaluates t over ev's whole audited log.
func templateMask(ev *query.Evaluator, t explain.Template) *bitset.Bits {
	n := ev.Log().NumRows()
	m := bitset.New(n)
	t.EvaluateRange(ev, 0, n, m)
	return m
}

// pathMask evaluates the closed path p over ev's whole audited log.
func pathMask(ev *query.Evaluator, p pathmodel.Path) *bitset.Bits {
	n := ev.Log().NumRows()
	m := bitset.New(n)
	ev.Prepare(p).ExplainedRange(0, n, m)
	return m
}
