package explain_test

import (
	"strings"
	"testing"

	"repro/internal/explain"
	"repro/internal/query"
	"repro/internal/relation"
)

// renderFixture builds a minimal database where one access is explained by
// one appointment, so description strings can be checked byte-for-byte.
func renderFixture(t *testing.T) *query.Evaluator {
	t.Helper()
	log := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
	log.Append(relation.Int(1), relation.Date(0), relation.Int(10), relation.Int(1))

	appt := relation.NewTable("Appointments", "Patient", "Date", "Doctor")
	appt.Append(relation.Int(1), relation.Date(2), relation.Int(110))

	mapping := relation.NewTable("UserMapping", "AuditID", "CaregiverID")
	mapping.Append(relation.Int(10), relation.Int(110))

	// Tables referenced by other templates must exist for Evaluate calls on
	// the full catalog, but this fixture only renders the appointment one.
	db := relation.NewDatabase()
	db.AddTable(log)
	db.AddTable(appt)
	db.AddTable(mapping)
	return query.NewEvaluator(db)
}

func TestRenderDescPlaceholders(t *testing.T) {
	ev := renderFixture(t)
	tpl := explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")
	texts := tpl.Render(ev, 0, 1, explain.NullNamer{})
	if len(texts) != 1 {
		t.Fatalf("texts = %v", texts)
	}
	want := "patient 1 had an appointment with user 10 on Tue Jan 05 2010."
	if texts[0] != want {
		t.Errorf("rendered %q, want %q", texts[0], want)
	}
}

func TestRenderDescCustomTokens(t *testing.T) {
	ev := renderFixture(t)
	base := explain.WithDrTemplate("x", "Appointments", "an appointment")
	cases := []struct {
		desc string
		want string
	}{
		// Caregiver role resolves through the namer.
		{"[Appointments1.Doctor|caregiver]", "caregiver 110"},
		// No role suffix renders the raw value.
		{"[Appointments1.Doctor]", "110"},
		// Unknown alias is preserved with a marker.
		{"[Nope1.X]", "[Nope1.X?]"},
		// Token without a dot is echoed.
		{"[garbage]", "[garbage]"},
		// Unterminated bracket is passed through.
		{"trailing [L.Patient", "trailing [L.Patient"},
		// Literal text around tokens.
		{"a [L.Lid] b", "a 1 b"},
	}
	for _, c := range cases {
		tpl := explain.NewPathTemplate("t", base.Path, c.desc)
		texts := tpl.Render(ev, 0, 1, explain.NullNamer{})
		if len(texts) != 1 || texts[0] != c.want {
			t.Errorf("desc %q rendered %v, want %q", c.desc, texts, c.want)
		}
	}
}

// TestRenderLiteralTemplate: a template assembled field by field, without
// the constructor that pre-parses Desc, renders the same text.
func TestRenderLiteralTemplate(t *testing.T) {
	ev := renderFixture(t)
	built := explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")
	literal := &explain.PathTemplate{TemplateName: built.TemplateName, Path: built.Path, Desc: built.Desc}
	want := built.Render(ev, 0, 1, explain.NullNamer{})
	if got := literal.Render(ev, 0, 1, explain.NullNamer{}); len(got) != 1 || got[0] != want[0] {
		t.Errorf("literal template rendered %v, constructor-built %v", got, want)
	}
}

func TestRenderMultipleInstancesRanked(t *testing.T) {
	ev := renderFixture(t)
	// Add a second appointment; two instances should render (limit
	// permitting).
	ev.Database().MustTable("Appointments").Append(relation.Int(1), relation.Date(4), relation.Int(110))
	tpl := explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")
	if texts := tpl.Render(ev, 0, 5, explain.NullNamer{}); len(texts) != 2 {
		t.Errorf("rendered %d instances, want 2", len(texts))
	}
	if texts := tpl.Render(ev, 0, 1, explain.NullNamer{}); len(texts) != 1 {
		t.Errorf("limit 1 rendered %d", len(texts))
	}
}

func TestGenericRenderNamesPatientAndUser(t *testing.T) {
	ev := renderFixture(t)
	base := explain.WithDrTemplate("x", "Appointments", "an appointment")
	tpl := explain.NewPathTemplate("generic", base.Path, "")
	texts := tpl.Render(ev, 0, 1, explain.NullNamer{})
	if len(texts) != 1 {
		t.Fatalf("texts = %v", texts)
	}
	for _, want := range []string{"patient 1", "user 10", "Appointments1(", "Doctor=110"} {
		if !strings.Contains(texts[0], want) {
			t.Errorf("generic text %q missing %q", texts[0], want)
		}
	}
}
