package experiments_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// tinyEnv is shared across tests in this package; experiments only read it.
var (
	tinyOnce sync.Once
	tinyEnv  *experiments.Env
)

func env(t testing.TB) *experiments.Env {
	t.Helper()
	tinyOnce.Do(func() { tinyEnv = experiments.Prepare(experiments.Tiny()) })
	return tinyEnv
}

func TestFigure6And8Shapes(t *testing.T) {
	e := env(t)
	f6 := experiments.Figure6(e)
	f8 := experiments.Figure8(e)

	all6 := barValue(t, f6, "All")
	all8 := barValue(t, f8, "All")
	if all6 < 0.85 {
		t.Errorf("Figure 6 All = %.3f, want >= 0.85 (paper ~0.97)", all6)
	}
	if all8 >= all6 {
		t.Errorf("Figure 8 All (%.3f) should be below Figure 6 All (%.3f)", all8, all6)
	}
	repeat := barValue(t, f6, "Repeat Access")
	if repeat < 0.3 {
		t.Errorf("Figure 6 repeat = %.3f, want a substantial share", repeat)
	}
	t.Log("\n" + f6.Render() + f8.Render())
}

func TestFigure7And9Shapes(t *testing.T) {
	e := env(t)
	f7 := experiments.Figure7(e)
	f9 := experiments.Figure9(e)

	all7 := barValue(t, f7, "All w/Dr.")
	all9 := barValue(t, f9, "All w/Dr.")
	if all7 < 0.6 {
		t.Errorf("Figure 7 All w/Dr = %.3f, want >= 0.6 (paper ~0.90)", all7)
	}
	// The central motivating gap: direct-doctor templates explain far fewer
	// first accesses than events exist for (paper: 11%% vs 75%%).
	f8 := experiments.Figure8(e)
	if all9 > barValue(t, f8, "All")/2 {
		t.Errorf("Figure 9 All w/Dr (%.3f) should be well below Figure 8 All (%.3f)",
			all9, barValue(t, f8, "All"))
	}
	t.Log("\n" + f7.Render() + f9.Render())
}

func TestFigure10_11Composition(t *testing.T) {
	e := env(t)
	f := experiments.Figure10_11(e, 2)
	if len(f.Groups) == 0 {
		t.Fatal("no collaborative groups found")
	}
	for _, g := range f.Groups {
		if g.Size < 2 {
			t.Errorf("group %d has %d members; clustering degenerated", g.GroupID, g.Size)
		}
	}
	t.Log("\n" + f.Render())
}

func TestFigure12DepthTradeoff(t *testing.T) {
	e := env(t)
	f := experiments.Figure12(e)
	if len(f.Rows) < 3 {
		t.Fatalf("expected depth sweep plus same-dept row, got %d rows", len(f.Rows))
	}
	depth0 := f.Rows[0]
	deepest := f.Rows[len(f.Rows)-2] // last depth row (before same-dept)
	if depth0.Recall < deepest.Recall {
		t.Errorf("depth-0 recall (%.3f) should be >= deepest-depth recall (%.3f)",
			depth0.Recall, deepest.Recall)
	}
	if depth0.Recall < 0.4 {
		t.Errorf("depth-0 recall = %.3f, want >= 0.4 (paper 0.81)", depth0.Recall)
	}
	t.Log("\n" + f.Render())
}

func TestFigure13AlgorithmsAgreeAndTime(t *testing.T) {
	e := env(t)
	f := experiments.Figure13(e) // panics internally on template mismatch
	if len(f.Series) != 5 {
		t.Fatalf("expected 5 algorithm series, got %d", len(f.Series))
	}
	if len(f.Templates) == 0 {
		t.Fatal("no templates mined")
	}
	t.Log("\n" + f.Render())
}

func TestFigure14LengthTradeoff(t *testing.T) {
	e := env(t)
	f := experiments.Figure14(e)
	if len(f.Rows) < 2 {
		t.Fatalf("expected at least one length row plus All, got %d", len(f.Rows))
	}
	first, last := f.Rows[0], f.Rows[len(f.Rows)-2] // shortest vs longest length row
	if first.Precision < last.Precision-1e-9 {
		t.Errorf("shortest-length precision (%.3f) should be >= longest (%.3f)",
			first.Precision, last.Precision)
	}
	all := f.Rows[len(f.Rows)-1]
	if all.Recall < last.Recall-1e-9 {
		t.Errorf("All recall (%.3f) should be >= longest-length recall (%.3f)", all.Recall, last.Recall)
	}
	t.Log("\n" + f.Render())
}

func TestTable1Stability(t *testing.T) {
	e := env(t)
	tab := experiments.Table1(e)
	if len(tab.Lengths) == 0 {
		t.Fatal("no templates mined in any period")
	}
	for _, l := range tab.Lengths {
		if tab.Common[l] > minCount(tab, l) {
			t.Errorf("common count %d exceeds per-period minimum for length %d", tab.Common[l], l)
		}
	}
	if !strings.Contains(tab.Title, "Table 1") {
		t.Errorf("unexpected title %q", tab.Title)
	}
	t.Log("\n" + tab.Render())
}

func TestHeadline(t *testing.T) {
	e := env(t)
	h := experiments.Headline(e)
	if h.ExplainedDay7All < 0.8 {
		t.Errorf("day-7 explained fraction = %.3f, want >= 0.8 (paper >0.94)", h.ExplainedDay7All)
	}
	if h.Depth0FirstRecall <= 0 {
		t.Error("depth-0 first-access recall is zero")
	}
	t.Log("\n" + h.Render())
}

func barValue(t *testing.T, f experiments.BarFigure, label string) float64 {
	t.Helper()
	for _, b := range f.Bars {
		if b.Label == label {
			return b.Value
		}
	}
	t.Fatalf("figure %q has no bar %q", f.Title, label)
	return 0
}

func minCount(tab experiments.StabilityTable, l int) int {
	m := -1
	for _, p := range tab.Periods {
		n := tab.Counts[l][p]
		if m < 0 || n < m {
			m = n
		}
	}
	return m
}

// TestFigure12DecoratedMatchesTableFiltered asserts the decorated-template
// route produces exactly the per-depth rows of the table-filtered Figure 12.
func TestFigure12DecoratedMatchesTableFiltered(t *testing.T) {
	e := env(t)
	plain := experiments.Figure12(e)
	dec := experiments.Figure12Decorated(e)
	// Figure12 appends a same-dept row; compare only the depth rows.
	if len(dec.Rows) != len(plain.Rows)-1 {
		t.Fatalf("row counts: decorated %d, plain %d", len(dec.Rows), len(plain.Rows))
	}
	for i, d := range dec.Rows {
		p := plain.Rows[i]
		if d.Precision != p.Precision || d.Recall != p.Recall || d.NormalizedRecall != p.NormalizedRecall {
			t.Errorf("depth %d: decorated %+v != plain %+v", i, d, p)
		}
	}
	t.Log("\n" + dec.Render())
}
