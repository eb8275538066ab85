package explain_test

import (
	"bytes"
	"encoding/json"
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
// bound instance, an unknown role, a template assembled without the
// constructor, whose description is prepared when it is compiled, repeat
// access with a placeholder on its Log2 (so it renders through the walk),
// and one with no description (the generic rendering).
func referenceFixtureTemplates() []explain.Template {
	appt := explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")
	desc := "On [L.Date] (access [L.Lid]) [L.User|user] saw [L.Patient|patient]; " +
		"[Appointments1.Doctor|caregiver] booked [Appointments1.Patient|patient] " +
		"as [Appointments1.Doctor|user] on [Appointments1.Date], [Nope1.X] [tok] " +
		"[L.User|nobody] [L.Patient|caregiver]."
	return []explain.Template{
		explain.NewPathTemplate("fixture", appt.Path, desc),
		&explain.PathTemplate{TemplateName: "fixture-literal", Path: appt.Path, Desc: desc},
		datedRepeatAccess(),
		explain.NewPathTemplate("fixture-generic", explain.GroupTemplate("g", "Appointments", "an appointment").Path, ""),
	}
}

// datedRepeatAccess is repeat access whose text also names the earlier
// access's date through the description alias Log2, so it renders each
// binding the walk finds rather than one text per explained row.
func datedRepeatAccess() *explain.PathTemplate {
	rt := explain.RepeatAccess()
	return explain.NewPathTemplate("repeat-access-dated", rt.Path,
		"[L.User|user] previously accessed [L.Patient|patient]'s record (on [Log2.Date]).", rt.Decorations...)
}

// refObjects is the reference NDJSON sink: the {template, length, text}
// object of each text as encoding/json writes it (HTML escaping on),
// comma-separated, with a leading comma when sep.
func refObjects(t *testing.T, tpl explain.Template, texts []string, sep bool) []byte {
	t.Helper()
	type object struct {
		Template string `json:"template"`
		Length   int    `json:"length"`
		Text     string `json:"text"`
	}
	var out []byte
	for i, text := range texts {
		if sep || i > 0 {
			out = append(out, ',')
		}
		b, err := json.Marshal(object{tpl.Name(), tpl.Length(), text})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// TestRenderMatchesReference pins both sinks of the compiled programs to
// the per-binding reference renderers: for seeds 1-3 of the Tiny hospital, every catalog and
// fixture template renders every audited row byte-identically, up to three
// instances per template, under NullNamer and under the generated
// dataset's namer — through
// Template.Render, through the call's Program.Render, and through
// Program.AppendNDJSON, whose objects must be the reference texts encoded.
// A program whose description reads only the audited row (repeat access)
// renders its text without classifying the row, as its callers render only
// the rows its mask explains, so its sinks are compared on the rows the
// reference explains.
func TestRenderMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		ds.DB.AddTable(groups.Train(ds.Log(), 8).Table(ehr.TableGroups))
		ev := query.NewEvaluator(ds.DB)
		tpls := append(explain.Handcrafted(true, true).All(), referenceFixtureTemplates()...)
		for _, namer := range []explain.Namer{explain.NullNamer{}, ds} {
			progs := explain.Compile(ev, namer, tpls)
			rendered, multi := map[string]int{}, map[string]int{}
			for i, tpl := range tpls {
				for r := 0; r < ds.Log().NumRows(); r++ {
					want, ok := explain.RenderReference(tpl, ev, r, 3, namer)
					if !ok {
						t.Fatalf("%s (%T) has no reference renderer", tpl.Name(), tpl)
					}
					got := tpl.Render(ev, r, 3, namer)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %T %s row %d:\n got %q\nwant %q", seed, namer, tpl.Name(), r, got, want)
					}
					if want == nil { // an unexplained row of a row-only description
						continue
					}
					if got := progs[i].Render(ev, r, 3); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %T %s row %d: Program.Render\n got %q\nwant %q", seed, namer, tpl.Name(), r, got, want)
					}
					sep := r%2 == 1
					wire, k := progs[i].AppendNDJSON([]byte("x"), ev, r, 3, sep)
					if ref := refObjects(t, tpl, want, sep); k != len(want) || !bytes.Equal(wire, append([]byte("x"), ref...)) {
						t.Fatalf("seed %d %T %s row %d: NDJSON sink wrote %d objects\n got %s\nwant x%s", seed, namer, tpl.Name(), r, k, wire, ref)
					}
					rendered[tpl.Name()] += len(got)
					if len(got) > 1 {
						multi[tpl.Name()]++
					}
				}
			}
			for _, name := range []string{"appt-with-dr", "repeat-access", "fixture", "fixture-literal", "repeat-access-dated", "fixture-generic"} {
				if rendered[name] == 0 {
					t.Fatalf("seed %d %T: %s rendered no text; the comparison is vacuous", seed, namer, name)
				}
			}
			for _, name := range []string{"appt-same-group", "repeat-access-dated", "fixture-generic"} {
				if multi[name] == 0 {
					t.Fatalf("seed %d %T: %s never rendered two texts for one row", seed, namer, name)
				}
			}
		}
	}
}
