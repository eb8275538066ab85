package core

import (
	"strconv"

	"repro/internal/explain"
	"repro/internal/query"
)

// appendRowNDJSON is the NDJSON sink for one audited row: it appends the
// row's wire line — one JSON object and a newline — to dst and reports
// whether the access is explained. The object has fields lid, date, user,
// patient, userName, explained, and — only when the access is explained —
// explanations, an array of {template, length, text} objects; scalar
// columns are rendered as strings through relation.Value's display form.
// The bytes are exactly what encoding/json's Encoder (HTML escaping on)
// writes for the report explainRowWith builds (the differential and fuzz
// tests pin them), but no report, explanation or text string is built: the
// header is encoded from the row's values, and each mask-set template's
// program appends its explanation objects in byLength order. A row no
// program produced a text for is rewound to its header and closed as not
// explained.
func (a *Auditor) appendRowNDJSON(dst []byte, ev *query.Evaluator, ps *Pass, row int) ([]byte, bool) {
	log := ev.Log()
	user := log.Cell(row, ps.cols.User)
	dst = append(dst, `{"lid":`...)
	dst = strconv.AppendInt(dst, log.Int(row, ps.cols.Lid), 10)
	dst = append(dst, `,"date":`...)
	dst = explain.AppendJSONValue(dst, log.Cell(row, ps.cols.Date))
	dst = append(dst, `,"user":`...)
	dst = explain.AppendJSONValue(dst, user)
	dst = append(dst, `,"patient":`...)
	dst = explain.AppendJSONValue(dst, log.Cell(row, ps.cols.Patient))
	dst = append(dst, `,"userName":`...)
	dst = explain.AppendUserNameJSON(dst, a.namer, user)
	mark := len(dst)
	dst = append(dst, `,"explained":true,"explanations":[`...)
	texts := 0
	for _, i := range a.byLength {
		if ps.masks[i].Get(row) {
			var k int
			dst, k = ps.progs[i].AppendNDJSON(dst, ev, row, defaultPerTemplate, texts > 0)
			texts += k
		}
	}
	if texts == 0 {
		return append(dst[:mark], ",\"explained\":false}\n"...), false
	}
	return append(dst, "]}\n"...), true
}
