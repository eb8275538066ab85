package experiments

import (
	"repro/internal/accesslog"
	"repro/internal/bitset"
	"repro/internal/explain"
	"repro/internal/query"
)

// Figure6 measures the frequency of events in the database for all accesses:
// the fraction of accesses whose patient has an appointment, visit, or
// document with anyone, the repeat-access fraction, and their union (the
// paper's ~97% "All" bar).
func Figure6(e *Env) BarFigure {
	ev := query.NewEvaluator(e.DS.DB)
	return eventBars(ev, "Figure 6: frequency of events in the database (all accesses)", true)
}

// Figure8 measures the same event frequencies over first accesses only
// (paper: ~75% All). Repeat accesses are excluded by definition.
func Figure8(e *Env) BarFigure {
	firsts := accesslog.FirstAccesses(e.FullLog)
	ev := query.NewEvaluatorWithLog(e.DS.DB, firsts)
	return eventBars(ev, "Figure 8: frequency of events in the database (first accesses)", false)
}

func eventBars(ev *query.Evaluator, title string, includeRepeat bool) BarFigure {
	var fig BarFigure
	fig.Title = title
	var masks []*bitset.Bits
	names := map[string]string{"appt": "Appt", "visit": "Visit", "document": "Document"}
	for _, ind := range explain.Indicators(false) {
		m := ev.Prepare(ind.Path).ConnectedRows()
		masks = append(masks, m)
		fig.Bars = append(fig.Bars, Bar{Label: names[ind.IndicatorName], Value: fraction(m)})
	}
	if includeRepeat {
		m := templateMask(ev, explain.RepeatAccess())
		masks = append(masks, m)
		fig.Bars = append(fig.Bars, Bar{Label: "Repeat Access", Value: fraction(m)})
	}
	fig.Bars = append(fig.Bars, Bar{Label: "All", Value: fraction(bitset.Union(masks...))})
	return fig
}

// Figure7 measures the recall of the hand-crafted explanation templates over
// all accesses: the patient had an appointment/visit/document with the
// specific user who accessed the record, or the access was a repeat access
// (paper: ~90% All w/Dr).
func Figure7(e *Env) BarFigure {
	ev := query.NewEvaluator(e.DS.DB)
	return withDrBars(ev, "Figure 7: hand-crafted explanations' recall (all accesses)", true)
}

// Figure9 measures the same hand-crafted templates over first accesses only
// (paper: ~11% All w/Dr — the gap against Figure 8's 75% is what motivates
// collaborative groups).
func Figure9(e *Env) BarFigure {
	firsts := accesslog.FirstAccesses(e.FullLog)
	ev := query.NewEvaluatorWithLog(e.DS.DB, firsts)
	return withDrBars(ev, "Figure 9: hand-crafted explanations' recall (first accesses)", false)
}

func withDrBars(ev *query.Evaluator, title string, includeRepeat bool) BarFigure {
	var fig BarFigure
	fig.Title = title
	cat := explain.Handcrafted(false, false)
	labels := []string{"Appt w/Dr.", "Visit w/Dr.", "Doc. w/Dr."}
	var masks []*bitset.Bits
	for i, t := range cat.SetAWithDr {
		m := templateMask(ev, t)
		masks = append(masks, m)
		fig.Bars = append(fig.Bars, Bar{Label: labels[i], Value: fraction(m)})
	}
	if includeRepeat {
		m := templateMask(ev, cat.RepeatAccess)
		masks = append(masks, m)
		fig.Bars = append(fig.Bars, Bar{Label: "Repeat Access", Value: fraction(m)})
	}
	fig.Bars = append(fig.Bars, Bar{Label: "All w/Dr.", Value: fraction(bitset.Union(masks...))})
	return fig
}
