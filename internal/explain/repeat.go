package explain

import (
	"sync"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// RepeatAccess is the decorated repeat-access template of §2.1: the access
// is explained because the same user previously accessed the same patient's
// record. The temporal condition L1.Date > L2.Date cannot be expressed as a
// simple path (Definition 3), so this template is evaluated by probing the
// history Log's patient index rather than through the path machinery.
type RepeatAccess struct{}

// Name implements Template.
func (RepeatAccess) Name() string { return "repeat-access" }

// Length implements Template. The underlying simple path has two joins.
func (RepeatAccess) Length() int { return 2 }

// SQL implements Template, rendering the decorated query of §2.1.
func (RepeatAccess) SQL() string {
	return "SELECT L1.Lid, L1.Patient, L1.User\n" +
		"FROM Log L1, Log L2\n" +
		"WHERE L1.Patient = L2.Patient\n" +
		"  AND L2.User = L1.User\n" +
		"  AND L1.Date > L2.Date"
}

// Evaluate implements Template: an audited row is explained when the
// database's Log records a strictly earlier access by the same
// (user, patient) pair. "Earlier" orders by (Date, Lid), so a same-day
// re-access with a later Lid counts as a repeat, matching an append-only log
// whose ids increase over time. The history comes from the evaluator's
// *database* log, so test accesses audited against a historical log (the
// §5.3.4 protocol) never match themselves.
func (t RepeatAccess) Evaluate(ev *query.Evaluator) []bool {
	return t.EvaluateRange(ev, 0, ev.Log().NumRows())
}

// logColumns are the positions of the Log columns the repeat-access probe reads.
type logColumns struct{ date, user, patient, lid int }

func logCols(t *relation.Table) logColumns {
	var c logColumns
	c.date, _ = t.ColumnIndex(pathmodel.LogDateColumn)
	c.user, _ = t.ColumnIndex(pathmodel.LogUserColumn)
	c.patient, _ = t.ColumnIndex(pathmodel.LogPatientColumn)
	c.lid, _ = t.ColumnIndex(pathmodel.LogIDColumn)
	return c
}

// earlierAccess reports whether one of the history rows listed in postings
// (the patient's rows) was made by user u strictly before (date, lid).
func earlierAccess(history *relation.Table, hc logColumns, postings []int, u relation.Value, date, lid int64) bool {
	for _, r := range postings {
		if history.Cell(r, hc.user) != u {
			continue
		}
		if hd := history.Int(r, hc.date); hd < date || (hd == date && history.Int(r, hc.lid) < lid) {
			return true
		}
	}
	return false
}

// repeatProbe is the repeat-access question resolved against one
// evaluator: the audited log and the history Log, their column positions,
// and the history's per-patient posting lists. Those come from
// Index(Patient), built on the first probe — once per Log version, shared
// by every cursor, shard and program reading the same table — unless the
// probed row's patient is the one a point call handed the rows of
// (Program.SetPatientRows). Mask evaluation and rendering ask it the same
// question, so a text exists exactly when the mask bit is set.
type repeatProbe struct {
	audited, history *relation.Table
	ac, hc           logColumns
	byPatient        patientIndex

	// When point is set, patientRows are every history row of patient.
	point       bool
	patient     relation.Value
	patientRows []int
}

// init resolves the probe against ev. A probe is filled in place rather
// than returned, as it holds a sync.Once, and must not be copied after.
func (rp *repeatProbe) init(ev *query.Evaluator) {
	history := ev.Database().MustTable(pathmodel.LogTable)
	*rp = repeatProbe{
		audited: ev.Log(), history: history,
		ac: logCols(ev.Log()), hc: logCols(history),
	}
}

// patientIndex holds the history's Index(Patient) once a probe has needed
// it.
type patientIndex struct {
	once sync.Once
	m    map[relation.Value][]int
}

func (x *patientIndex) get(history *relation.Table) map[relation.Value][]int {
	x.once.Do(func() { x.m = history.Index(pathmodel.LogPatientColumn) })
	return x.m
}

// explains reports whether the history holds a strictly earlier access by
// the audited row's (user, patient) pair: one probe of the patient's
// posting list, O(accesses to that patient).
func (rp *repeatProbe) explains(r int) bool {
	patient := rp.audited.Cell(r, rp.ac.patient)
	postings := rp.patientRows
	if !rp.point || patient != rp.patient {
		postings = rp.byPatient.get(rp.history)[patient]
	}
	return earlierAccess(rp.history, rp.hc, postings, rp.audited.Cell(r, rp.ac.user),
		rp.audited.Int(r, rp.ac.date), rp.audited.Int(r, rp.ac.lid))
}

// EvaluateRange implements Template. Each audited row in [lo, hi) probes
// the history's per-patient posting list (see repeatProbe), so a call costs
// O(rows × accesses per patient) and builds nothing of its own: a template
// sharded into k ranges pays no per-range history scan.
func (RepeatAccess) EvaluateRange(ev *query.Evaluator, lo, hi int) []bool {
	if lo < 0 || hi < lo || hi > ev.Log().NumRows() {
		panic("explain: RepeatAccess range out of bounds")
	}
	out := make([]bool, hi-lo)
	var rp repeatProbe
	rp.init(ev)
	for r := lo; r < hi; r++ {
		out[r-lo] = rp.explains(r)
	}
	return out
}

// repeatForm is RepeatAccess's description over the audited row.
var repeatForm = newTextForm(RepeatAccess{}.Name(), RepeatAccess{}.Length(),
	"[L.User|user] previously accessed [L.Patient|patient]'s record.", nil)

// Render implements Template: one text when the repeat probe explains the
// row, nil otherwise.
func (t RepeatAccess) Render(ev *query.Evaluator, logRow, limit int, n Namer) []string {
	return renderOnce(t, ev, logRow, limit, n)
}
