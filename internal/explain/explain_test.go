package explain_test

import (
	"strings"
	"testing"

	"repro/internal/accesslog"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// tinyEvaluator builds the tiny hospital with a Groups table and returns
// (dataset, evaluator over the full log).
func tinyEvaluator(t testing.TB) (*ehr.Dataset, *query.Evaluator) {
	t.Helper()
	ds := ehr.Generate(ehr.Tiny())
	g := groups.BuildUserGraph(ds.Log())
	h := groups.BuildHierarchy(g, 8)
	ds.DB.AddTable(h.Table(ehr.TableGroups))
	return ds, query.NewEvaluator(ds.DB)
}

func TestCatalogStructure(t *testing.T) {
	full := explain.Handcrafted(true, true)
	if len(full.SetAWithDr) != 3 {
		t.Errorf("SetAWithDr = %d templates", len(full.SetAWithDr))
	}
	if len(full.SetBLen2) != 7 {
		t.Errorf("SetBLen2 = %d templates", len(full.SetBLen2))
	}
	if len(full.DeptLen4) != 3 || len(full.GroupLen4A) != 3 || len(full.GroupLen4B) != 3 {
		t.Errorf("len-4 sets: dept=%d groupA=%d groupB=%d",
			len(full.DeptLen4), len(full.GroupLen4A), len(full.GroupLen4B))
	}
	if full.RepeatAccess == nil {
		t.Fatal("no repeat-access template")
	}
	if got := len(full.All()); got != 3+1+7+3+3+3 {
		t.Errorf("All() = %d templates", got)
	}

	aOnly := explain.Handcrafted(false, false)
	if len(aOnly.SetBLen2) != 0 || len(aOnly.GroupLen4A) != 0 {
		t.Error("A-only catalog contains B/group templates")
	}

	// Names are unique.
	seen := map[string]bool{}
	for _, tm := range full.All() {
		if seen[tm.Name()] {
			t.Errorf("duplicate template name %q", tm.Name())
		}
		seen[tm.Name()] = true
	}
}

func TestTemplateLengths(t *testing.T) {
	c := explain.Handcrafted(true, true)
	for _, tm := range c.SetAWithDr {
		if tm.Length() != 2 {
			t.Errorf("%s length = %d, want 2", tm.Name(), tm.Length())
		}
	}
	for _, tm := range c.SetBLen2 {
		if tm.Length() != 2 {
			t.Errorf("%s length = %d, want 2", tm.Name(), tm.Length())
		}
	}
	for _, tm := range append(append(c.DeptLen4, c.GroupLen4A...), c.GroupLen4B...) {
		if tm.Length() != 4 {
			t.Errorf("%s length = %d, want 4", tm.Name(), tm.Length())
		}
	}
	if c.RepeatAccess.Length() != 2 {
		t.Errorf("repeat length = %d", c.RepeatAccess.Length())
	}
}

func TestTemplateSQL(t *testing.T) {
	c := explain.Handcrafted(true, true)
	appt := c.SetAWithDr[0]
	sql := appt.SQL()
	for _, want := range []string{"Appointments", "UserMapping", "COUNT(DISTINCT L.Lid)"} {
		if !strings.Contains(sql, want) {
			t.Errorf("appt SQL missing %q:\n%s", want, sql)
		}
	}
	rsql := c.RepeatAccess.SQL()
	for _, want := range []string{"(SELECT DISTINCT Patient, User, Date, Lid FROM Log) Log2", "(Log2.Date, Log2.Lid) < (L.Date, L.Lid)"} {
		if !strings.Contains(rsql, want) {
			t.Errorf("repeat SQL missing %q:\n%s", want, rsql)
		}
	}
}

func TestRepeatAccessSemantics(t *testing.T) {
	log := accesslog.NewLogTable("Log")
	add := func(lid, day, user, patient int64) {
		log.Append(relation.Int(lid), relation.Date(int(day)), relation.Int(user), relation.Int(patient))
	}
	add(1, 0, 10, 1) // first
	add(2, 1, 10, 1) // repeat (later day)
	add(3, 1, 11, 1) // first (different user)
	add(4, 1, 10, 2) // first (different patient)
	add(5, 1, 12, 3) // first
	add(6, 1, 12, 3) // repeat (same day, later lid)

	db := relation.NewDatabase()
	db.AddTable(log)
	ev := query.NewEvaluator(db)
	mask := explain.RepeatAccess().Evaluate(ev)
	want := []bool{false, true, false, false, false, true}
	for i := range want {
		if mask[i] != want[i] {
			t.Errorf("repeat[%d] = %v, want %v", i, mask[i], want[i])
		}
	}
}

func TestRepeatAccessAgainstHistoricalLog(t *testing.T) {
	history := accesslog.NewLogTable("Log")
	history.Append(relation.Int(1), relation.Date(0), relation.Int(10), relation.Int(1))
	db := relation.NewDatabase()
	db.AddTable(history)

	audited := accesslog.NewLogTable("Log")
	audited.Append(relation.Int(50), relation.Date(6), relation.Int(10), relation.Int(1)) // pair in history
	audited.Append(relation.Int(51), relation.Date(6), relation.Int(11), relation.Int(1)) // new pair

	ev := query.NewEvaluatorWithLog(db, audited)
	mask := explain.RepeatAccess().Evaluate(ev)
	if !mask[0] || mask[1] {
		t.Errorf("historical repeat mask = %v, want [true false]", mask)
	}

	// Render produces text for the explained row only.
	if texts := explain.RepeatAccess().Render(ev, 0, 3, explain.NullNamer{}); len(texts) != 1 {
		t.Errorf("Render explained row = %v", texts)
	}
	if texts := explain.RepeatAccess().Render(ev, 1, 3, explain.NullNamer{}); texts != nil {
		t.Errorf("Render unexplained row = %v", texts)
	}
}

func TestRenderApptTemplate(t *testing.T) {
	ds, ev := tinyEvaluator(t)
	c := explain.Handcrafted(true, true)
	appt := c.SetAWithDr[0]

	mask := appt.Evaluate(ev)
	row := -1
	for r, ok := range mask {
		if ok {
			row = r
			break
		}
	}
	if row < 0 {
		t.Fatal("appointment template explains nothing")
	}
	texts := appt.Render(ev, row, 3, ds)
	if len(texts) == 0 {
		t.Fatal("no rendered instances")
	}
	if !strings.Contains(texts[0], "appointment") {
		t.Errorf("rendered text = %q", texts[0])
	}
	// The text should name the accessing user via the namer, not print a
	// raw id.
	user := ds.UserByAudit(ev.Log().Get(row, pathmodel.LogUserColumn).AsInt())
	if user == nil || !strings.Contains(texts[0], user.Name) {
		t.Errorf("rendered text %q does not name user %v", texts[0], user)
	}
}

func TestRenderUnexplainedRowIsEmpty(t *testing.T) {
	_, ev := tinyEvaluator(t)
	c := explain.Handcrafted(true, true)
	appt := c.SetAWithDr[0]
	mask := appt.Evaluate(ev)
	for r, ok := range mask {
		if !ok {
			if texts := appt.Render(ev, r, 3, explain.NullNamer{}); len(texts) != 0 {
				t.Errorf("row %d unexplained but rendered %v", r, texts)
			}
			break
		}
	}
}

func TestGenericRenderingWithoutDesc(t *testing.T) {
	ds, ev := tinyEvaluator(t)
	c := explain.Handcrafted(true, true)
	base := c.SetAWithDr[0].(*explain.PathTemplate)
	generic := explain.NewPathTemplate("generic", base.Path, "")

	mask := generic.Evaluate(ev)
	for r, ok := range mask {
		if ok {
			texts := generic.Render(ev, r, 1, ds)
			if len(texts) != 1 || !strings.Contains(texts[0], "Appointments1(") {
				t.Errorf("generic rendering = %v", texts)
			}
			return
		}
	}
	t.Fatal("template explains nothing")
}

func TestNewPathTemplateReversesBackwardPaths(t *testing.T) {
	c := explain.Handcrafted(true, true)
	base := c.SetAWithDr[0].(*explain.PathTemplate)
	// Manufacture the backward version and wrap it.
	edges := base.Path.Edges()
	b, ok := pathmodel.StartAt(pathmodel.ReverseEdge(edges[len(edges)-1]), pathmodel.LogUserColumn)
	if !ok {
		t.Fatal("backward start failed")
	}
	for i := len(edges) - 2; i >= 0; i-- {
		b, ok = b.Append(pathmodel.ReverseEdge(edges[i]))
		if !ok {
			t.Fatal("backward append failed")
		}
	}
	tpl := explain.NewPathTemplate("bwd", b, "")
	if !tpl.Path.Forward() {
		t.Error("NewPathTemplate kept backward orientation")
	}
}

func TestNewPathTemplatePanicsOnOpenPath(t *testing.T) {
	c := explain.Handcrafted(true, true)
	ind := explain.Indicators(false)[0]
	_ = c
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	explain.NewPathTemplate("open", ind.Path, "")
}

func TestIndicators(t *testing.T) {
	a := explain.Indicators(false)
	if len(a) != 3 {
		t.Errorf("A indicators = %d", len(a))
	}
	b := explain.Indicators(true)
	if len(b) != 6 {
		t.Errorf("A+B indicators = %d", len(b))
	}
	for _, ind := range b {
		if ind.Path.Closed() {
			t.Errorf("indicator %s is closed", ind.IndicatorName)
		}
		if ind.Path.Length() != 1 {
			t.Errorf("indicator %s length = %d", ind.IndicatorName, ind.Path.Length())
		}
	}
}

// TestWithDrSubsetOfEvents: a template's explained rows are a subset of the
// corresponding event indicator's connected rows.
func TestWithDrSubsetOfEvents(t *testing.T) {
	_, ev := tinyEvaluator(t)
	c := explain.Handcrafted(false, false)
	appt := c.SetAWithDr[0]
	ind := explain.Indicators(false)[0]

	tmpl := appt.Evaluate(ev)
	events := ev.Prepare(ind.Path).ConnectedRows()
	for i := range tmpl {
		if tmpl[i] && !events.Get(i) {
			t.Fatalf("row %d explained by appt template but has no appointment event", i)
		}
	}
	// And strictly fewer (nurses!).
	if fraction(templateMask(ev, appt)) >= fraction(events) {
		t.Error("template recall not below event recall")
	}
}

func TestNullNamer(t *testing.T) {
	n := explain.NullNamer{}
	if got := n.PatientName(relation.Int(5)); got != "patient 5" {
		t.Errorf("PatientName = %q", got)
	}
	if got := n.UserName(relation.Int(5)); got != "user 5" {
		t.Errorf("UserName = %q", got)
	}
	if got := n.CaregiverName(relation.Int(5)); got != "caregiver 5" {
		t.Errorf("CaregiverName = %q", got)
	}
}
