package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/accesslog"
	"repro/internal/bitset"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/mine"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/schemagraph"
)

// MiningSeries is one algorithm's cumulative run time by explanation length
// (one line of Figure 13).
type MiningSeries struct {
	Algorithm  string
	Cumulative map[int]time.Duration
	Stats      mine.Stats
}

// MiningFigure is the Figure 13 analogue.
type MiningFigure struct {
	Title   string
	Lengths []int
	Series  []MiningSeries
	// Templates is the template set (identical across algorithms; checked by
	// the driver) from the first algorithm.
	Templates []pathmodel.Path
}

// Render prints the cumulative-time table.
func (f MiningFigure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "  %-10s", "length")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %12s", s.Algorithm)
	}
	b.WriteString("\n")
	for _, l := range f.Lengths {
		fmt.Fprintf(&b, "  %-10d", l)
		for _, s := range f.Series {
			d, ok := s.Cumulative[l]
			if !ok {
				fmt.Fprintf(&b, " %12s", "-")
				continue
			}
			fmt.Fprintf(&b, " %12s", d.Round(time.Millisecond))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  %-10s", "stats")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("q=%d c=%d", s.Stats.SupportQueries, s.Stats.CacheHits))
	}
	b.WriteString("\n")
	return b.String()
}

// Figure13 runs the one-way, two-way, and bridge-2/3/4 miners over the
// training window's first accesses (data sets A and B plus groups, s = 1%,
// T = 3) and reports cumulative run time by explanation length. The paper
// found Bridge-2 fastest and two-way slower than one-way because of its
// larger initial edge set.
func Figure13(e *Env, algorithms ...string) MiningFigure {
	if len(algorithms) == 0 {
		algorithms = []string{
			mine.AlgoOneWay, mine.AlgoTwoWay,
			mine.AlgoBridge(2), mine.AlgoBridge(3), mine.AlgoBridge(4),
		}
	}
	db, audited := e.MiningDB()
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())

	fig := MiningFigure{
		Title: fmt.Sprintf("Figure 13: mining performance (train days, s=%.1f%%, M=%d, T=%d)",
			e.Cfg.Mining.SupportFraction*100, e.Cfg.Mining.MaxLength, e.Cfg.Mining.MaxTables),
	}
	lengthSet := map[int]bool{}
	var refKeys map[string]bool
	for _, algo := range algorithms {
		ev := query.NewEvaluatorWithLog(db, audited)
		res := mineWith(algo, ev, g, e.Cfg.Mining)
		if fig.Templates == nil {
			fig.Templates = res.Templates
			refKeys = make(map[string]bool, len(res.Templates))
			for _, p := range res.Templates {
				refKeys[p.CanonicalKey()] = true
			}
		} else {
			// The paper reports all algorithms produce the same templates;
			// verify rather than assume.
			if len(res.Templates) != len(refKeys) {
				panic(fmt.Sprintf("experiments: %s mined %d templates, expected %d",
					algo, len(res.Templates), len(refKeys)))
			}
			for _, p := range res.Templates {
				if !refKeys[p.CanonicalKey()] {
					panic(fmt.Sprintf("experiments: %s mined unexpected template %s", algo, p))
				}
			}
		}
		for l := range res.Stats.CumulativeTime {
			lengthSet[l] = true
		}
		fig.Series = append(fig.Series, MiningSeries{
			Algorithm: algo, Cumulative: res.Stats.CumulativeTime, Stats: res.Stats,
		})
	}
	for l := range lengthSet {
		fig.Lengths = append(fig.Lengths, l)
	}
	sort.Ints(fig.Lengths)
	return fig
}

// mineWith runs one of the fixed algorithms the figures name. The only
// errors mine.Run returns are for an unknown name or invalid options, which
// here are programming errors in the experiment configuration.
func mineWith(algo string, ev *query.Evaluator, g *schemagraph.Graph, opt mine.Options) mine.Result {
	res, err := mine.Run(algo, ev, g, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// Figure14 evaluates the predictive power of the mined templates by length
// on the day-7 first accesses mixed with the fake log. Short templates have
// the best precision; longer (group-using) templates raise recall at some
// precision cost, and "All" tracks the longest templates because they
// subsume the shorter ones.
func Figure14(e *Env) PRFigure {
	db, audited := e.MiningDB()
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	mev := query.NewEvaluatorWithLog(db, audited)
	res := mineWith(mine.AlgoOneWay, mev, g, e.Cfg.Mining)

	testDB := e.HistoricalDB(e.Hierarchy.Table("Groups"))
	ev, ts := e.testDaySetup(testDB, true)

	byLen := make(map[int][]*bitset.Bits)
	var all []*bitset.Bits
	for _, p := range res.Templates {
		m := pathMask(ev, p)
		byLen[p.Length()] = append(byLen[p.Length()], m)
		all = append(all, m)
	}

	fig := PRFigure{Title: "Figure 14: mined explanations' predictive power (day-7 first accesses)"}
	lengths := make([]int, 0, len(byLen))
	for l := range byLen {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	for _, l := range lengths {
		fig.Rows = append(fig.Rows, score(bitset.Union(byLen[l]...), ts.realRows, ts.hasEvent).row(fmt.Sprintf("length %d", l)))
	}
	fig.Rows = append(fig.Rows, score(bitset.Union(all...), ts.realRows, ts.hasEvent).row("All"))
	return fig
}

// StabilityTable is the Table 1 analogue: templates mined per time period
// and the common core across periods.
type StabilityTable struct {
	Title   string
	Periods []string
	Lengths []int
	// Counts[length][period] is the number of templates of that length.
	Counts map[int]map[string]int
	// Common[length] is the number of templates mined in every period.
	Common map[int]int
}

// Render prints the table.
func (t StabilityTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "  %-8s", "length")
	for _, p := range t.Periods {
		fmt.Fprintf(&b, " %10s", p)
	}
	fmt.Fprintf(&b, " %10s\n", "common")
	for _, l := range t.Lengths {
		fmt.Fprintf(&b, "  %-8d", l)
		for _, p := range t.Periods {
			fmt.Fprintf(&b, " %10d", t.Counts[l][p])
		}
		fmt.Fprintf(&b, " %10d\n", t.Common[l])
	}
	return b.String()
}

// Table1 mines the training window, single days, and the test day
// separately and reports the number of templates per length plus the common
// core, reproducing the stability analysis of §5.3.5. Collaborative groups
// stay fixed (trained on the training window) across periods.
func Table1(e *Env) StabilityTable {
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	type period struct {
		name     string
		from, to int
	}
	testDay := e.Cfg.TrainEndDay + 1
	periods := []period{
		{fmt.Sprintf("days 1-%d", e.Cfg.TrainEndDay+1), 0, e.Cfg.TrainEndDay},
		{"day 1", 0, 0},
		{"day 3", 2, 2},
		{fmt.Sprintf("day %d", testDay+1), testDay, testDay},
	}

	t := StabilityTable{
		Title:  "Table 1: number of explanation templates mined per time period",
		Counts: make(map[int]map[string]int),
		Common: make(map[int]int),
	}
	perPeriodKeys := make([]map[string]int, len(periods)) // key -> length
	for i, p := range periods {
		t.Periods = append(t.Periods, p.name)
		sub := accesslog.FilterDays(e.FullLog, p.from, p.to)
		db := accesslog.WithLog(e.DS.DB, sub)
		audited := accesslog.FirstAccesses(sub)
		ev := query.NewEvaluatorWithLog(db, audited)
		res := mineWith(mine.AlgoOneWay, ev, g, e.Cfg.Mining)
		keys := make(map[string]int, len(res.Templates))
		for _, tpl := range res.Templates {
			keys[tpl.CanonicalKey()] = tpl.Length()
			if t.Counts[tpl.Length()] == nil {
				t.Counts[tpl.Length()] = make(map[string]int)
			}
			t.Counts[tpl.Length()][p.name]++
		}
		perPeriodKeys[i] = keys
	}
	for key, l := range perPeriodKeys[0] {
		inAll := true
		for _, keys := range perPeriodKeys[1:] {
			if _, ok := keys[key]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			t.Common[l]++
		}
	}
	for l := range t.Counts {
		t.Lengths = append(t.Lengths, l)
	}
	sort.Ints(t.Lengths)
	return t
}

// HeadlineResult reports the paper's summary numbers (§5.3.2): the fraction
// of all day-7 accesses explained by the hand-crafted templates plus
// depth-1 collaborative groups, and the depth-0 group recall over day-7
// first accesses.
type HeadlineResult struct {
	ExplainedDay7All    float64
	Depth0FirstRecall   float64
	UserPatientDensity  float64
	Day7AccessCount     int
	Day7FirstAccesses   int
	TemplatesContribute map[string]float64
}

// Render prints the headline summary.
func (h HeadlineResult) Render() string {
	var b strings.Builder
	b.WriteString("Headline numbers (§5.3.2)\n")
	fmt.Fprintf(&b, "  day-7 accesses explained (templates + depth-1 groups): %.3f (paper: >0.94)\n", h.ExplainedDay7All)
	fmt.Fprintf(&b, "  depth-0 group recall on day-7 first accesses:          %.3f (paper: 0.81)\n", h.Depth0FirstRecall)
	fmt.Fprintf(&b, "  user-patient density:                                   %.5f (paper: 0.0003)\n", h.UserPatientDensity)
	fmt.Fprintf(&b, "  day-7 accesses: %d (of which first: %d)\n", h.Day7AccessCount, h.Day7FirstAccesses)
	names := make([]string, 0, len(h.TemplatesContribute))
	for n := range h.TemplatesContribute {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "    %-24s %.3f\n", n, h.TemplatesContribute[n])
	}
	return b.String()
}

// Headline computes the paper's summary numbers over the synthetic data.
func Headline(e *Env) HeadlineResult {
	// Day-7 all accesses, audited against the full week (repeat accesses may
	// reference days 1-6).
	day7 := e.TestLog
	gt := e.Hierarchy.TableAtDepth("Groups", min(1, e.Hierarchy.MaxDepth()))
	db := accesslog.WithLog(e.DS.DB, e.FullLog)
	db.AddTable(gt)
	ev := query.NewEvaluatorWithLog(db, day7)

	cat := explain.Handcrafted(true, true)
	contribute := make(map[string]float64)
	var masks []*bitset.Bits
	add := func(t explain.Template) {
		m := templateMask(ev, t)
		masks = append(masks, m)
		contribute[t.Name()] = fraction(m)
	}
	for _, t := range cat.SetAWithDr {
		add(t)
	}
	add(cat.RepeatAccess)
	for _, t := range cat.SetBLen2 {
		add(t)
	}
	for _, t := range cat.GroupLen4A {
		add(t)
	}
	for _, t := range cat.GroupLen4B {
		add(t)
	}
	explained := fraction(bitset.Union(masks...))

	// Depth-0 recall on day-7 first accesses.
	fig12db := e.HistoricalDB(e.Hierarchy.TableAtDepth("Groups", 0))
	firsts := e.TestDayFirstAccesses()
	fev := query.NewEvaluatorWithLog(fig12db, firsts)
	cat12 := explain.Handcrafted(false, true)
	var gmasks []*bitset.Bits
	for _, t := range cat12.GroupLen4A {
		gmasks = append(gmasks, templateMask(fev, t))
	}
	depth0 := fraction(bitset.Union(gmasks...))

	pairs := accesslog.UserPatientPairs(e.FullLog)
	users := e.FullLog.NumDistinct(pathmodel.LogUserColumn)
	patients := e.FullLog.NumDistinct(pathmodel.LogPatientColumn)
	density := 0.0
	if users > 0 && patients > 0 {
		density = float64(pairs) / (float64(users) * float64(patients))
	}

	return HeadlineResult{
		ExplainedDay7All:    explained,
		Depth0FirstRecall:   depth0,
		UserPatientDensity:  density,
		Day7AccessCount:     day7.NumRows(),
		Day7FirstAccesses:   firsts.NumRows(),
		TemplatesContribute: contribute,
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
