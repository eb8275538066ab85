package mine_test

import (
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/ehr"
	"repro/internal/mine"
	"repro/internal/pathmodel"
)

func keysOf(r mine.Result) map[string]bool {
	out := make(map[string]bool, len(r.Templates))
	for _, p := range r.Templates {
		out[p.CanonicalKey()] = true
	}
	return out
}

func sameTemplates(t *testing.T, name string, a, b mine.Result) {
	t.Helper()
	ka, kb := keysOf(a), keysOf(b)
	if len(ka) != len(kb) {
		t.Errorf("%s: %d vs %d templates", name, len(ka), len(kb))
	}
	for k := range ka {
		if !kb[k] {
			t.Errorf("%s: missing %s", name, k)
		}
	}
}

// TestOptimizationsPreserveResults verifies the §3.2.1 guarantee: the
// support cache and the skip-non-selective optimization change performance,
// never the mined template set.
func TestOptimizationsPreserveResults(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	base := mine.DefaultOptions()
	base.MaxLength = 3

	ref := mustRun(t, mine.AlgoOneWay, ev, g, base)
	if len(ref.Templates) == 0 {
		t.Fatal("no templates mined")
	}

	noCache := base
	noCache.CacheSupport = false
	sameTemplates(t, "cache off", ref, mustRun(t, mine.AlgoOneWay, ev, g, noCache))

	noSkip := base
	noSkip.SkipNonSelective = false
	sameTemplates(t, "skip off", ref, mustRun(t, mine.AlgoOneWay, ev, g, noSkip))

	bare := base
	bare.CacheSupport = false
	bare.SkipNonSelective = false
	sameTemplates(t, "all off", ref, mustRun(t, mine.AlgoOneWay, ev, g, bare))

	// With everything off, every candidate issues a query and no cache hits
	// or skips occur.
	res := mustRun(t, mine.AlgoOneWay, ev, g, bare)
	if res.Stats.CacheHits != 0 || res.Stats.Skipped != 0 {
		t.Errorf("bare run has cacheHits=%d skipped=%d", res.Stats.CacheHits, res.Stats.Skipped)
	}
	withOpt := mustRun(t, mine.AlgoOneWay, ev, g, base)
	if withOpt.Stats.SupportQueries >= res.Stats.SupportQueries {
		t.Errorf("optimizations did not reduce queries: %d vs %d",
			withOpt.Stats.SupportQueries, res.Stats.SupportQueries)
	}
}

// TestSupportThresholdMonotonic: raising s can only shrink the template
// set, and every template mined at high support is mined at low support.
func TestSupportThresholdMonotonic(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	opt := mine.DefaultOptions()
	opt.MaxLength = 3

	low := opt
	low.SupportFraction = 0.01
	high := opt
	high.SupportFraction = 0.20

	lowRes := mustRun(t, mine.AlgoOneWay, ev, g, low)
	highRes := mustRun(t, mine.AlgoOneWay, ev, g, high)
	if len(highRes.Templates) >= len(lowRes.Templates) {
		t.Errorf("s=20%% mined %d templates, s=1%% mined %d — expected strict shrink",
			len(highRes.Templates), len(lowRes.Templates))
	}
	lowKeys := keysOf(lowRes)
	for k := range keysOf(highRes) {
		if !lowKeys[k] {
			t.Errorf("template %s mined at high support but not at low", k)
		}
	}
}

// TestMaxLengthRespected: no mined template exceeds M, and raising M only
// adds templates.
func TestMaxLengthRespected(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	opt := mine.DefaultOptions()

	opt.MaxLength = 2
	short := mustRun(t, mine.AlgoOneWay, ev, g, opt)
	for _, p := range short.Templates {
		if p.Length() > 2 {
			t.Errorf("template of length %d mined with M=2", p.Length())
		}
	}
	opt.MaxLength = 3
	longer := mustRun(t, mine.AlgoOneWay, ev, g, opt)
	shortKeys := keysOf(short)
	longKeys := keysOf(longer)
	for k := range shortKeys {
		if !longKeys[k] {
			t.Errorf("template lost when raising M: %s", k)
		}
	}
	if len(longKeys) <= len(shortKeys) {
		t.Error("raising M added no templates")
	}
}

// TestMaxTablesRespected: T bounds the number of distinct tables.
func TestMaxTablesRespected(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	opt := mine.DefaultOptions()
	opt.MaxLength = 4
	opt.MaxTables = 2

	res := mustRun(t, mine.AlgoOneWay, ev, g, opt)
	for _, p := range res.Templates {
		if p.NumTables() > 2 {
			t.Errorf("template references %d tables with T=2: %s", p.NumTables(), p)
		}
	}
}

// TestSkipConstantExtreme: with c=0 every open path is skipped (estimate >
// 0 threshold), which must still not lose templates because skipped paths
// stay in the frontier.
func TestSkipConstantExtreme(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	opt := mine.DefaultOptions()
	opt.MaxLength = 3

	ref := mustRun(t, mine.AlgoOneWay, ev, g, opt)

	aggressive := opt
	aggressive.SkipConstant = 0 // skip whenever the estimate is positive
	res := mustRun(t, mine.AlgoOneWay, ev, g, aggressive)
	// Skipping never discards candidate explanations, but it does disable
	// support pruning of prefixes, so the result must be a superset filtered
	// by the same closed-path exact checks — i.e. identical.
	sameTemplates(t, "c=0", ref, res)
	if res.Stats.Skipped == 0 {
		t.Error("c=0 skipped nothing")
	}
}

func TestRunDispatch(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	opt := mine.DefaultOptions()
	opt.MaxLength = 2

	for _, algo := range []string{"one-way", "two-way", "bridge-2"} {
		if _, err := mine.Run(algo, ev, g, opt); err != nil {
			t.Errorf("Run(%q) error: %v", algo, err)
		}
	}
	for _, bad := range []string{"three-way", "bridge-1", "bridge-x", ""} {
		if _, err := mine.Run(bad, ev, g, opt); err == nil {
			t.Errorf("Run(%q) succeeded, want error", bad)
		}
	}
	if got := mine.AlgoBridge(3); got != "bridge-3" {
		t.Errorf("AlgoBridge(3) = %q", got)
	}
}

// TestRunRejectsShortMaxLength pins that a MaxLength below 1 is an error
// for every algorithm, not an index out of range in the bridged assembly.
func TestRunRejectsShortMaxLength(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	for _, m := range []int{0, -1} {
		opt := mine.DefaultOptions()
		opt.MaxLength = m
		for _, algo := range []string{"one-way", "two-way", "bridge-2", "bridge-3"} {
			if _, err := mine.Run(algo, ev, g, opt); err == nil {
				t.Errorf("Run(%q) with MaxLength %d succeeded, want error", algo, m)
			}
		}
	}
}

// TestRunRejectsNonsenseParameters pins that a support fraction that is
// NaN or outside [0, 1], and an algorithm name with anything around
// "bridge-N", are errors rather than a run with a nonsense threshold or a
// silently truncated name.
func TestRunRejectsNonsenseParameters(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	for _, s := range []float64{-1, -0.01, 1.01, 5, math.NaN(), math.Inf(1)} {
		opt := mine.DefaultOptions()
		opt.MaxLength = 2
		opt.SupportFraction = s
		if _, err := mine.Run("bridge-2", ev, g, opt); err == nil {
			t.Errorf("Run with SupportFraction %v succeeded, want error", s)
		}
	}
	opt := mine.DefaultOptions()
	opt.MaxLength = 2
	for _, bad := range []string{"bridge-2abc", "bridge-2x", "bridge-2 ", "bridge-02", "bridge-+2", " bridge-2"} {
		if _, err := mine.Run(bad, ev, g, opt); err == nil {
			t.Errorf("Run(%q) succeeded, want error", bad)
		}
	}
	for _, s := range []float64{0, 1} {
		opt.SupportFraction = s
		if _, err := mine.Run("bridge-2", ev, g, opt); err != nil {
			t.Errorf("Run with SupportFraction %v: %v", s, err)
		}
	}
}

func TestStatsLengthsSortedAndTimed(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	opt := mine.DefaultOptions()
	opt.MaxLength = 3
	res := mustRun(t, mine.AlgoOneWay, ev, g, opt)

	lengths := slices.Sorted(maps.Keys(res.Stats.CumulativeTime))
	if !slices.Equal(lengths, []int{1, 2, 3}) {
		t.Fatalf("timed lengths = %v, want [1 2 3]", lengths)
	}
	// Cumulative times are non-decreasing.
	for i := 1; i < len(lengths); i++ {
		if res.Stats.CumulativeTime[lengths[i]] < res.Stats.CumulativeTime[lengths[i-1]] {
			t.Error("cumulative time decreased")
		}
	}
	// TemplatesByLength sums to the result size.
	sum := 0
	for _, n := range res.Stats.TemplatesByLength {
		sum += n
	}
	if sum != len(res.Templates) {
		t.Errorf("TemplatesByLength sums to %d, templates = %d", sum, len(res.Templates))
	}
}

// TestMinedRepeatAccessTemplate confirms the undecorated repeat-access
// template (L.Patient = Log2.Patient AND Log2.User = L.User) is mined when
// log self-joins are allowed and absent when they are not.
func TestMinedRepeatAccessTemplate(t *testing.T) {
	ev := buildTinyEvaluator(t)
	opt := mine.DefaultOptions()
	opt.MaxLength = 2

	withLog := mustRun(t, mine.AlgoOneWay, ev, ehr.SchemaGraph(ehr.DefaultGraphOptions()), opt)
	found := false
	for _, p := range withLog.Templates {
		if p.InstancesOfTable(pathmodel.LogTable) == 2 {
			found = true
		}
	}
	if !found {
		t.Error("repeat-access template not mined with log self-joins enabled")
	}

	noLogOpts := ehr.DefaultGraphOptions()
	noLogOpts.LogSelfJoins = false
	withoutLog := mustRun(t, mine.AlgoOneWay, ev, ehr.SchemaGraph(noLogOpts), opt)
	for _, p := range withoutLog.Templates {
		if p.InstancesOfTable(pathmodel.LogTable) == 2 {
			t.Errorf("log self-join template mined despite being disallowed: %s", p)
		}
	}
}
