package explain_test

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/explain"
)

var (
	// subquery matches an instance's FROM item: (SELECT DISTINCT cols FROM
	// Table) Label.
	subquery = regexp.MustCompile(`\(SELECT DISTINCT ([^)]*) FROM \w+\) (\w+)`)
	// columnRef matches a Label.Col reference.
	columnRef = regexp.MustCompile(`\b(\w+)\.(\w+)\b`)
)

// sqlTemplates are the catalog and both decorated templates.
func sqlTemplates() []*explain.PathTemplate {
	var out []*explain.PathTemplate
	for _, tpl := range explain.Handcrafted(true, true).All() {
		out = append(out, tpl.(*explain.PathTemplate))
	}
	return append(out, explain.DepthRestrictedGroupTemplate("appt-group-d1", "Appointments", "an appointment", 1))
}

// TestSQLInstanceLabelsAreDescriptionAliases pins one alias scheme: every
// instance label a template's SQL prints names, as a description
// placeholder, the instance it labels in the SQL.
func TestSQLInstanceLabelsAreDescriptionAliases(t *testing.T) {
	for _, tpl := range sqlTemplates() {
		sql := tpl.SQL()
		labels := []string{"L"}
		for _, m := range subquery.FindAllStringSubmatch(sql, -1) {
			labels = append(labels, m[2])
		}
		if len(labels) != len(tpl.Path.Instances()) {
			t.Fatalf("%s: SQL labels %v for %d instances:\n%s", tpl.Name(), labels, len(tpl.Path.Instances()), sql)
		}
		for i, label := range labels {
			if inst, ok := explain.ResolveAlias(tpl.Path, label); !ok || inst != i {
				t.Errorf("%s: SQL label %s of instance %d resolves as a description alias to (%d, %v)", tpl.Name(), label, i, inst, ok)
			}
		}
	}
}

// TestDecoratedSQLSelectsWhatItReads pins valid SQL: every Label.Col in a
// template's WHERE clause is selected by Label's subquery, or belongs to L
// or to a bridge table, which the FROM clause names whole.
func TestDecoratedSQLSelectsWhatItReads(t *testing.T) {
	for _, tpl := range sqlTemplates() {
		sql := tpl.SQL()
		from, where, ok := strings.Cut(sql, "\nWHERE ")
		if !ok {
			t.Fatalf("%s: no WHERE clause:\n%s", tpl.Name(), sql)
		}
		selected := map[string][]string{}
		for _, m := range subquery.FindAllStringSubmatch(from, -1) {
			selected[m[2]] = strings.Split(m[1], ", ")
		}
		for _, m := range columnRef.FindAllStringSubmatch(where, -1) {
			label, col := m[1], m[2]
			cols, isSubquery := selected[label]
			if label != "L" && !isSubquery && !strings.Contains(from, " "+label+",") && !strings.HasSuffix(from, " "+label) {
				t.Errorf("%s: WHERE reads %s.%s, and FROM has no %s:\n%s", tpl.Name(), label, col, label, sql)
			}
			if isSubquery && !slices.Contains(cols, col) {
				t.Errorf("%s: WHERE reads %s.%s, which %s's subquery does not select:\n%s", tpl.Name(), label, col, label, sql)
			}
		}
	}
}
