package explain

import (
	"fmt"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// RepeatAccessReference is the map scan repeat access ran before the engine
// kept each pair's first access, kept verbatim as the differential oracle: every call hashes the whole history into the
// earliest (Date, Lid) per (user, patient) pair, then classifies the audited
// rows [lo, hi) against it.
func RepeatAccessReference(ev *query.Evaluator, lo, hi int) []bool {
	history := ev.Database().MustTable(pathmodel.LogTable)
	audited := ev.Log()
	if lo < 0 || hi < lo || hi > audited.NumRows() {
		panic("explain: repeat-access range out of bounds")
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

// renderBindingsReference is the per-row renderer as it was before
// placeholders were resolved once per call, kept verbatim as the
// differential oracle of a Program's two sinks: every placeholder of every
// binding looks its table up by name and reads its value by column name,
// and every role goes through the Namer.
func renderBindingsReference(segs []descSeg, desc string, p pathmodel.Path, ev *query.Evaluator, logRow int, bindings []query.InstanceBinding, n Namer) []string {
	out := make([]string, 0, len(bindings))
	if desc == "" {
		for _, b := range bindings {
			out = append(out, renderGeneric(p, ev, logRow, b, n))
		}
		return out
	}
	if segs == nil {
		segs = parseDesc(desc, p)
	}
	var buf [256]byte
	text := buf[:0]
	insts := p.Instances()
	for _, b := range bindings {
		text = text[:0]
		for _, s := range segs {
			if s.lit != "" {
				text = append(text, s.lit...)
				continue
			}
			var v relation.Value
			if s.inst == 0 {
				v = ev.Log().Get(logRow, s.col)
			} else {
				v = ev.Database().MustTable(insts[s.inst].Table).Get(b.Rows[s.inst-1], s.col)
			}
			switch s.role {
			case "patient":
				text = append(text, n.PatientName(v)...)
			case "user":
				text = append(text, n.UserName(v)...)
			case "caregiver":
				text = append(text, n.CaregiverName(v)...)
			default:
				text = v.AppendString(text)
			}
		}
		out = append(out, string(text))
	}
	return out
}

// RepeatAccessRenderReference is repeat access's Render as it was before
// the template compiled to a program, kept as the differential oracle: every
// call scans the whole history for an earlier access by the row's (user,
// patient) pair, and fmt.Sprintf builds the text.
func RepeatAccessRenderReference(ev *query.Evaluator, logRow int, n Namer) []string {
	audited := ev.Log()
	if logRow < 0 || logRow >= audited.NumRows() {
		return nil
	}
	cols := func(t *relation.Table) (di, ui, pi, li int) {
		di, _ = t.ColumnIndex(pathmodel.LogDateColumn)
		ui, _ = t.ColumnIndex(pathmodel.LogUserColumn)
		pi, _ = t.ColumnIndex(pathmodel.LogPatientColumn)
		li, _ = t.ColumnIndex(pathmodel.LogIDColumn)
		return
	}
	adi, aui, api, ali := cols(audited)
	u, p := audited.Cell(logRow, aui), audited.Cell(logRow, api)
	date, lid := audited.Cell(logRow, adi).AsInt(), audited.Cell(logRow, ali).AsInt()
	history := ev.Database().MustTable(pathmodel.LogTable)
	hdi, hui, hpi, hli := cols(history)
	earlier := false
	for r := 0; r < history.NumRows() && !earlier; r++ {
		if history.Cell(r, hui) != u || history.Cell(r, hpi) != p {
			continue
		}
		hd, hl := history.Cell(r, hdi).AsInt(), history.Cell(r, hli).AsInt()
		earlier = hd < date || (hd == date && hl < lid)
	}
	if !earlier {
		return nil
	}
	return []string{fmt.Sprintf("%s previously accessed %s's record.",
		n.UserName(u), n.PatientName(p))}
}

// ResolveAlias returns the instance of p that the description placeholder
// [label.X] names; ok is false when the description would keep it as
// literal text.
func ResolveAlias(p pathmodel.Path, label string) (inst int, ok bool) {
	segs := parseDesc("["+label+".X]", p)
	if len(segs) != 1 || segs[0].lit != "" {
		return 0, false
	}
	return segs[0].inst, true
}

// formSegs returns a prepared form's segments, nil for a template assembled
// without its constructor.
func formSegs(f *textForm) []descSeg {
	if f == nil {
		return nil
	}
	return f.segs
}

// RenderReference renders t's explanation instances for logRow the way
// renderBindingsReference did, over the bindings of the instance walk: one
// text when the description reads only the audited row and the walk finds
// a binding, nil when it finds none. ok is false for template types with no
// reference renderer.
func RenderReference(t Template, ev *query.Evaluator, logRow, limit int, n Namer) (texts []string, ok bool) {
	tpl, ok := t.(*PathTemplate)
	if !ok {
		return nil, false
	}
	var bs []query.InstanceBinding
	if len(tpl.Decorations) > 0 {
		bs = ev.InstancesDecorated(tpl.decorated(), logRow, limit)
	} else {
		bs = ev.Instances(tpl.Path, logRow, limit)
	}
	if tpl.prepared().rowOnly {
		if len(bs) == 0 {
			return nil, true
		}
		bs = bs[:1]
	}
	return renderBindingsReference(formSegs(tpl.form), tpl.Desc, tpl.Path, ev, logRow, bs, n), true
}
