package explain

import (
	"fmt"

	"repro/internal/pathmodel"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// Table names of the CareWeb schema, duplicated here to avoid an import
// cycle with the generator; kept in sync by tests.
const (
	tableAppointments = "Appointments"
	tableVisits       = "Visits"
	tableDocuments    = "Documents"
	tableLabs         = "Labs"
	tableMedications  = "Medications"
	tableRadiology    = "Radiology"
	tableDeptCodes    = "DeptCodes"
	tableUserMapping  = "UserMapping"
	tableGroups       = "Groups"
)

// caregiverToAudit is the mapping bridge from data set A's caregiver ids to
// the log's audit ids.
var caregiverToAudit = schemagraph.Bridge{
	Table: tableUserMapping, FromColumn: "CaregiverID", ToColumn: "AuditID",
}

// auditToCaregiver is the opposite direction.
var auditToCaregiver = schemagraph.Bridge{
	Table: tableUserMapping, FromColumn: "AuditID", ToColumn: "CaregiverID",
}

func attr(table, col string) schemagraph.Attr { return schemagraph.Attr{Table: table, Column: col} }

// mustPath assembles a path from edges, panicking on invalid construction —
// the hand-crafted catalog is static, so failure is a programming error.
func mustPath(edges ...schemagraph.Edge) pathmodel.Path {
	p, ok := pathmodel.Start(edges[0])
	if !ok {
		panic("explain: bad start edge " + edges[0].String())
	}
	for _, e := range edges[1:] {
		p, ok = p.Append(e)
		if !ok {
			panic("explain: bad edge " + e.String())
		}
	}
	return p
}

func logPatientTo(table string) schemagraph.Edge {
	return schemagraph.Edge{From: pathmodel.StartAttr(), To: attr(table, "Patient"), Kind: schemagraph.KeyFK}
}

// directToUser joins an audit-id attribute straight to Log.User.
func directToUser(table, col string) schemagraph.Edge {
	return schemagraph.Edge{From: attr(table, col), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK}
}

// bridgedToUser joins a caregiver-id attribute to Log.User through the
// mapping table.
func bridgedToUser(table, col string) schemagraph.Edge {
	v := caregiverToAudit
	return schemagraph.Edge{From: attr(table, col), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK, Via: &v}
}

// setADoctorColumn returns the clinician column of a data set A event table.
func setADoctorColumn(table string) string {
	if table == tableDocuments {
		return "Author"
	}
	return "Doctor"
}

// WithDrTemplate builds the length-2 "event with the user who accessed"
// template for a data set A table (explanation (A) of Example 2.1).
func WithDrTemplate(name, table, eventNoun string) *PathTemplate {
	doctor := setADoctorColumn(table)
	p := mustPath(
		logPatientTo(table),
		bridgedToUser(table, doctor),
	)
	desc := "[L.Patient|patient] had " + eventNoun + " with [L.User|user] on [" + table + "1.Date]."
	return NewPathTemplate(name, p, desc)
}

// SetBTemplate builds the length-2 template joining a data set B order table
// column (audit ids) directly to the log user.
func SetBTemplate(name, table, col, verb string) *PathTemplate {
	p := mustPath(
		logPatientTo(table),
		directToUser(table, col),
	)
	desc := "[L.User|user] " + verb + " for [L.Patient|patient] on [" + table + "1.Date]."
	return NewPathTemplate(name, p, desc)
}

// deptOrGroupTemplate builds the length-4 template "the patient had an event
// with a clinician, and the accessing user shares a department code /
// collaborative group with that clinician" (explanation (B) of Example 2.1
// and Example 4.2).
func deptOrGroupTemplate(name, eventTable, eventNoun, linkTable, linkUserCol, linkKeyCol, linkNoun string) *PathTemplate {
	doctor := setADoctorColumn(eventTable)
	v := caregiverToAudit
	p := mustPath(
		logPatientTo(eventTable),
		schemagraph.Edge{From: attr(eventTable, doctor), To: attr(linkTable, linkUserCol), Kind: schemagraph.KeyFK, Via: &v},
		schemagraph.Edge{From: attr(linkTable, linkKeyCol), To: attr(linkTable, linkKeyCol), Kind: schemagraph.SelfJoin},
		directToUser(linkTable, linkUserCol),
	)
	desc := "[L.Patient|patient] had " + eventNoun + " with [" + eventTable + "1." + doctor + "|caregiver] on [" +
		eventTable + "1.Date], and [L.User|user] shares " + linkNoun + " with them."
	return NewPathTemplate(name, p, desc)
}

// DeptTemplate builds the department-code variant for a data set A event
// table.
func DeptTemplate(name, eventTable, eventNoun string) *PathTemplate {
	return deptOrGroupTemplate(name, eventTable, eventNoun, tableDeptCodes, "User", "Dept", "a department code")
}

// GroupTemplate builds the collaborative-group variant for a data set A
// event table (Example 4.2).
func GroupTemplate(name, eventTable, eventNoun string) *PathTemplate {
	return deptOrGroupTemplate(name, eventTable, eventNoun, tableGroups, "User", "GroupID", "a collaborative group")
}

// GroupTemplateB builds the collaborative-group variant for a data set B
// order table column (audit ids, no mapping bridge needed).
func GroupTemplateB(name, eventTable, col, verb string) *PathTemplate {
	p := mustPath(
		logPatientTo(eventTable),
		schemagraph.Edge{From: attr(eventTable, col), To: attr(tableGroups, "User"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr(tableGroups, "GroupID"), To: attr(tableGroups, "GroupID"), Kind: schemagraph.SelfJoin},
		directToUser(tableGroups, "User"),
	)
	desc := "someone in [L.User|user]'s collaborative group " + verb + " for [L.Patient|patient] on [" +
		eventTable + "1.Date]."
	return NewPathTemplate(name, p, desc)
}

// RepeatAccess builds the paper's decorated repeat-access template (§2.1):
// the access is explained because the same user previously accessed the
// same patient's record. Its simple path L.Patient = Log2.Patient AND
// Log2.User = L.User is decorated with Log2 coming before L in log order
// (pathmodel.LogOrder, the (Date, Lid) order of an append-only log).
func RepeatAccess() *PathTemplate {
	start := pathmodel.StartAttr()
	end := pathmodel.EndAttr()
	p := mustPath(
		schemagraph.Edge{From: start, To: start, Kind: schemagraph.SelfJoin},
		schemagraph.Edge{From: end, To: end, Kind: schemagraph.SelfJoin},
	)
	return NewPathTemplate("repeat-access", p,
		"[L.User|user] previously accessed [L.Patient|patient]'s record.",
		pathmodel.Decoration{
			Left:  pathmodel.Ref{Inst: 1, Col: pathmodel.LogOrder},
			Op:    pathmodel.OpLT,
			Right: pathmodel.Ref{Inst: 0, Col: pathmodel.LogOrder},
		})
}

// DepthRestrictedGroupTemplate builds the §5.3.4 future-work template: the
// collaborative-group explanation restricted to groups at one hierarchy
// depth, controlling the precision/recall trade-off without rebuilding the
// Groups table. eventTable must be a data set A table (Appointments,
// Visits, Documents).
func DepthRestrictedGroupTemplate(name, eventTable, eventNoun string, depth int) *PathTemplate {
	d := relation.Int(int64(depth))
	doctor := setADoctorColumn(eventTable)
	desc := fmt.Sprintf("[L.Patient|patient] had %s with [%s1.%s|caregiver] on [%s1.Date], and "+
		"[L.User|user] shares a depth-%d collaborative group with them.",
		eventNoun, eventTable, doctor, eventTable, depth)
	return NewPathTemplate(name, GroupTemplate(name+"-base", eventTable, eventNoun).Path, desc,
		pathmodel.Decoration{Left: pathmodel.Ref{Inst: 2, Col: "GroupDepth"}, Op: pathmodel.OpEQ, Const: &d}, // Groups1
		pathmodel.Decoration{Left: pathmodel.Ref{Inst: 3, Col: "GroupDepth"}, Op: pathmodel.OpEQ, Const: &d}, // Groups2
	)
}

// Catalog bundles the hand-crafted templates used by the paper's
// experiments, grouped the way the figures consume them.
type Catalog struct {
	// SetAWithDr holds the length-2 appointment/visit/document templates
	// (Figures 7 and 9).
	SetAWithDr []Template
	// RepeatAccess is the decorated repeat-access template (RepeatAccess()).
	RepeatAccess Template
	// SetBLen2 holds the length-2 order-table templates (labs, medications,
	// radiology).
	SetBLen2 []Template
	// DeptLen4 holds the length-4 same-department templates.
	DeptLen4 []Template
	// GroupLen4A holds the length-4 collaborative-group templates over data
	// set A events (Figure 12).
	GroupLen4A []Template
	// GroupLen4B holds the length-4 collaborative-group templates over data
	// set B orders.
	GroupLen4B []Template
}

// All returns every template in the catalog, shortest first.
func (c Catalog) All() []Template {
	var out []Template
	out = append(out, c.SetAWithDr...)
	if c.RepeatAccess != nil {
		out = append(out, c.RepeatAccess)
	}
	out = append(out, c.SetBLen2...)
	out = append(out, c.DeptLen4...)
	out = append(out, c.GroupLen4A...)
	out = append(out, c.GroupLen4B...)
	return out
}

// Handcrafted builds the template catalog. includeB adds the data set B
// templates; includeGroups adds the collaborative-group templates (the
// database must then contain the Groups table).
func Handcrafted(includeB, includeGroups bool) Catalog {
	c := Catalog{
		SetAWithDr: []Template{
			WithDrTemplate("appt-with-dr", tableAppointments, "an appointment"),
			WithDrTemplate("visit-with-dr", tableVisits, "a visit"),
			WithDrTemplate("doc-by-dr", tableDocuments, "a document produced"),
		},
		RepeatAccess: RepeatAccess(),
		DeptLen4: []Template{
			DeptTemplate("appt-same-dept", tableAppointments, "an appointment"),
			DeptTemplate("visit-same-dept", tableVisits, "a visit"),
			DeptTemplate("doc-same-dept", tableDocuments, "a document produced"),
		},
	}
	if includeB {
		c.SetBLen2 = []Template{
			SetBTemplate("lab-ordered-by", tableLabs, "OrderedBy", "ordered labs"),
			SetBTemplate("lab-performed-by", tableLabs, "PerformedBy", "performed labs"),
			SetBTemplate("med-requested-by", tableMedications, "RequestedBy", "requested a medication"),
			SetBTemplate("med-signed-by", tableMedications, "SignedBy", "signed a medication order"),
			SetBTemplate("med-administered-by", tableMedications, "AdministeredBy", "administered a medication"),
			SetBTemplate("radiology-ordered-by", tableRadiology, "OrderedBy", "ordered imaging"),
			SetBTemplate("radiology-read-by", tableRadiology, "ReadBy", "read imaging"),
		}
	}
	if includeGroups {
		c.GroupLen4A = []Template{
			GroupTemplate("appt-same-group", tableAppointments, "an appointment"),
			GroupTemplate("visit-same-group", tableVisits, "a visit"),
			GroupTemplate("doc-same-group", tableDocuments, "a document produced"),
		}
		if includeB {
			c.GroupLen4B = []Template{
				GroupTemplateB("lab-ordered-same-group", tableLabs, "OrderedBy", "ordered labs"),
				GroupTemplateB("med-requested-same-group", tableMedications, "RequestedBy", "requested a medication"),
				GroupTemplateB("radiology-ordered-same-group", tableRadiology, "OrderedBy", "ordered imaging"),
			}
		}
	}
	return c
}

// Indicator is an open-path event marker: "the patient had this kind of
// event with anyone", the quantity plotted in Figures 6 and 8. It is not an
// explanation (it never touches Log.User).
type Indicator struct {
	IndicatorName string
	Path          pathmodel.Path
}

// NewIndicator builds an event indicator over the Patient column of an
// event table.
func NewIndicator(name, table string) Indicator {
	return Indicator{IndicatorName: name, Path: mustPath(logPatientTo(table))}
}

// Indicators returns the standard event indicators; includeB adds the order
// tables.
func Indicators(includeB bool) []Indicator {
	out := []Indicator{
		NewIndicator("appt", tableAppointments),
		NewIndicator("visit", tableVisits),
		NewIndicator("document", tableDocuments),
	}
	if includeB {
		out = append(out,
			NewIndicator("lab", tableLabs),
			NewIndicator("medication", tableMedications),
			NewIndicator("radiology", tableRadiology),
		)
	}
	return out
}
