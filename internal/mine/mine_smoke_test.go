package mine_test

import (
	"testing"

	"repro/internal/accesslog"
	"repro/internal/ehr"
	"repro/internal/groups"
	"repro/internal/mine"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/schemagraph"
)

// buildTinyEvaluator generates the tiny hospital with groups installed and
// returns an evaluator over the first accesses, the configuration the paper
// mines on (§5.3.3).
func buildTinyEvaluator(t testing.TB) *query.Evaluator {
	t.Helper()
	ds := ehr.Generate(ehr.Tiny())
	g := groups.BuildUserGraph(ds.Log())
	h := groups.BuildHierarchy(g, 8)
	ds.DB.AddTable(h.Table(ehr.TableGroups))
	return query.NewEvaluator(accesslog.WithLog(ds.DB, accesslog.FirstAccesses(ds.Log())))
}

func templateKeys(r mine.Result) map[string]bool {
	out := make(map[string]bool, len(r.Templates))
	for _, p := range r.Templates {
		out[p.CanonicalKey()] = true
	}
	return out
}

// mustRun runs the named algorithm through mine.Run, failing the test on
// an error.
func mustRun(t testing.TB, algo string, ev *query.Evaluator, g *schemagraph.Graph, opt mine.Options) mine.Result {
	t.Helper()
	res, err := mine.Run(algo, ev, g, opt)
	if err != nil {
		t.Fatalf("mine.Run(%s): %v", algo, err)
	}
	return res
}

// TestMinersAgree verifies the paper's §5.3.3 claim that the one-way,
// two-way, and bridged algorithms produce the same set of explanation
// templates.
func TestMinersAgree(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	opt := mine.DefaultOptions()
	opt.MaxLength = 4 // keep the tiny run fast

	oneWay := mustRun(t, mine.AlgoOneWay, ev, g, opt)
	twoWay := mustRun(t, mine.AlgoTwoWay, ev, g, opt)
	bridge2 := mustRun(t, mine.AlgoBridge(2), ev, g, opt)
	bridge3 := mustRun(t, mine.AlgoBridge(3), ev, g, opt)

	ref := templateKeys(oneWay)
	if len(ref) == 0 {
		t.Fatal("one-way mined no templates")
	}
	for name, r := range map[string]mine.Result{
		"two-way": twoWay, "bridge-2": bridge2, "bridge-3": bridge3,
	} {
		got := templateKeys(r)
		if len(got) != len(ref) {
			t.Errorf("%s mined %d templates, one-way mined %d", name, len(got), len(ref))
		}
		for k := range ref {
			if !got[k] {
				t.Errorf("%s missing template %s", name, k)
			}
		}
		for k := range got {
			if !ref[k] {
				t.Errorf("%s has extra template %s", name, k)
			}
		}
	}
	t.Logf("templates by length: %v, candidates=%d queries=%d cacheHits=%d skipped=%d",
		oneWay.Stats.TemplatesByLength, oneWay.Stats.CandidatesGenerated,
		oneWay.Stats.SupportQueries, oneWay.Stats.CacheHits, oneWay.Stats.Skipped)
	for _, p := range oneWay.Templates {
		if p.Length() <= 2 {
			t.Logf("len-2 template: %s", p.String())
		}
	}
}

// TestMinedTemplatesAreForwardAndClosed checks result invariants.
func TestMinedTemplatesAreForwardAndClosed(t *testing.T) {
	ev := buildTinyEvaluator(t)
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	opt := mine.DefaultOptions()
	opt.MaxLength = 3
	res := mustRun(t, mine.AlgoOneWay, ev, g, opt)
	minSupp := int(float64(ev.Log().NumRows())*opt.SupportFraction + 0.999999)
	for _, p := range res.Templates {
		if !p.Closed() || !p.Forward() {
			t.Errorf("template not closed+forward: %s", p.String())
		}
		if p.LastAttr() != pathmodel.EndAttr() {
			t.Errorf("template does not end at Log.User: %s", p.String())
		}
		if s := ev.Support(p); s < minSupp {
			t.Errorf("template support %d below threshold %d: %s", s, minSupp, p.String())
		}
	}
}
