package explain

import (
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// RepeatAccessReference is the map-scan RepeatAccess.EvaluateRange ran
// before it probed the history's patient index, kept verbatim as the
// differential oracle: every call hashes the whole history into the
// earliest (Date, Lid) per (user, patient) pair, then classifies the audited
// rows [lo, hi) against it.
func RepeatAccessReference(ev *query.Evaluator, lo, hi int) []bool {
	history := ev.Database().MustTable(pathmodel.LogTable)
	audited := ev.Log()
	if lo < 0 || hi < lo || hi > audited.NumRows() {
		panic("explain: RepeatAccess range out of bounds")
	}
	type pair struct{ u, p relation.Value }
	type stamp struct{ date, lid int64 }
	earliest := make(map[pair]stamp)

	readCols := func(t *relation.Table) (di, ui, pi, li int) {
		di, _ = t.ColumnIndex(pathmodel.LogDateColumn)
		ui, _ = t.ColumnIndex(pathmodel.LogUserColumn)
		pi, _ = t.ColumnIndex(pathmodel.LogPatientColumn)
		li, _ = t.ColumnIndex(pathmodel.LogIDColumn)
		return
	}

	hdi, hui, hpi, hli := readCols(history)
	for r := 0; r < history.NumRows(); r++ {
		row := history.Row(r)
		k := pair{row[hui], row[hpi]}
		s := stamp{row[hdi].AsInt(), row[hli].AsInt()}
		if cur, ok := earliest[k]; !ok || s.date < cur.date || (s.date == cur.date && s.lid < cur.lid) {
			earliest[k] = s
		}
	}
	adi, aui, api, ali := readCols(audited)
	out := make([]bool, hi-lo)
	for r := lo; r < hi; r++ {
		row := audited.Row(r)
		k := pair{row[aui], row[api]}
		first, ok := earliest[k]
		if !ok {
			continue
		}
		s := stamp{row[adi].AsInt(), row[ali].AsInt()}
		out[r-lo] = s.date > first.date || (s.date == first.date && s.lid > first.lid)
	}
	return out
}
