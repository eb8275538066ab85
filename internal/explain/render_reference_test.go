package explain_test

import (
	"reflect"
	"testing"

	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/query"
)

// referenceFixtureTemplates are description templates beyond the catalog:
// audited-row placeholders with no role ([L.Date] and [L.Lid]), an unknown
// alias, a token without a dot, every role on both the audited row and a
// bound instance, an unknown role, and a template assembled without the
// constructor, whose description is parsed at render time.
func referenceFixtureTemplates() []explain.Template {
	appt := explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")
	desc := "On [L.Date] (access [L.Lid]) [L.User|user] saw [L.Patient|patient]; " +
		"[Appointments1.Doctor|caregiver] booked [Appointments1.Patient|patient] " +
		"as [Appointments1.Doctor|user] on [Appointments1.Date], [Nope1.X] [tok] " +
		"[L.User|nobody] [L.Patient|caregiver]."
	return []explain.Template{
		explain.NewPathTemplate("fixture", appt.Path, desc),
		&explain.PathTemplate{TemplateName: "fixture-literal", Path: appt.Path, Desc: desc},
		explain.DecoratedRepeatAccess(),
	}
}

// TestRenderMatchesReference pins renderBindings, which resolves every
// placeholder once per call, to the per-binding reference: for seeds 1-3
// of the Tiny hospital, every catalog and fixture template renders every
// audited row byte-identically under NullNamer and under the generated
// dataset's namer.
func TestRenderMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		ds.DB.AddTable(groups.Train(ds.Log(), 8).Table(ehr.TableGroups))
		ev := query.NewEvaluator(ds.DB)
		tpls := append(explain.Handcrafted(true, true).All(), referenceFixtureTemplates()...)
		for _, namer := range []explain.Namer{explain.NullNamer{}, ds} {
			rendered := map[string]int{}
			for _, tpl := range tpls {
				for r := 0; r < ds.Log().NumRows(); r++ {
					want, ok := explain.RenderReference(tpl, ev, r, 0, namer)
					if !ok {
						break
					}
					got := tpl.Render(ev, r, 0, namer)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %T %s row %d:\n got %q\nwant %q", seed, namer, tpl.Name(), r, got, want)
					}
					rendered[tpl.Name()] += len(got)
				}
			}
			for _, name := range []string{"appt-with-dr", "fixture", "fixture-literal", "repeat-access-decorated"} {
				if rendered[name] == 0 {
					t.Fatalf("seed %d %T: %s rendered no text; the comparison is vacuous", seed, namer, name)
				}
			}
		}
	}
}
