package explain

import (
	"repro/internal/query"
)

// RepeatAccess is the decorated repeat-access template of §2.1: the access
// is explained because the same user previously accessed the same patient's
// record. The temporal condition L1.Date > L2.Date cannot be expressed as a
// simple path (Definition 3), so this template is evaluated against the
// earliest history access the query engine keeps for each (patient, user)
// pair rather than through the path machinery.
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

// EvaluateRange implements Template. Row r is explained exactly when it
// comes strictly after its (patient, user) pair's earliest history access,
// which the engine keeps per pair (query.Repeats): one comparison per row.
// That state is extended over appended rows only and shared by every
// range, so a call builds nothing of its own and a template sharded into k
// ranges pays no per-range history scan.
func (RepeatAccess) EvaluateRange(ev *query.Evaluator, lo, hi int) []bool {
	if lo < 0 || hi < lo || hi > ev.Log().NumRows() {
		panic("explain: RepeatAccess range out of bounds")
	}
	out := make([]bool, hi-lo)
	rp := ev.Repeats()
	for r := lo; r < hi; r++ {
		out[r-lo] = rp.Explains(r)
	}
	return out
}

// repeatForm is RepeatAccess's description over the audited row.
var repeatForm = newTextForm(RepeatAccess{}.Name(), RepeatAccess{}.Length(),
	"[L.User|user] previously accessed [L.Patient|patient]'s record.", nil)

// Render implements Template: one text when the row is a repeat access,
// nil otherwise. The row is checked against the engine's per-pair state
// first, since a compiled program renders its text unconditionally.
func (t RepeatAccess) Render(ev *query.Evaluator, logRow, limit int, n Namer) []string {
	if logRow < 0 || logRow >= ev.Log().NumRows() || !ev.Repeats().Explains(logRow) {
		return nil
	}
	return renderOnce(t, ev, logRow, limit, n)
}
