package explain

import (
	"fmt"
	"slices"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// Program is one template compiled for one call: its description's
// placeholders resolved to table pointers, column positions and name roles,
// bound to the call's evaluator. A description that reads only the audited
// row (textForm.rowOnly, as repeat access's does) renders one text from one
// empty binding and enumerates no instances; any other walks its path for
// its bindings. It renders through two sinks: Render, the string sink
// behind Template.Render and the report API, and AppendNDJSON, which
// escapes a text into the NDJSON wire form piece by piece as it is
// assembled, with the literals escaped once when the template was built.
//
// Programs are call-local. They hold the tables the database had when
// Compile ran, so a call compiles its own set and drops it on return; the
// call's workers share the set read-only, each rendering on its own cursor
// over the same database and audited log.
type Program struct {
	form *textForm
	n    Namer

	slots []slot
	path  pathmodel.Path         // the walk's path, and a generic text's hops
	decs  []pathmodel.Decoration // the walk's extra conditions
}

// slotRole is how a resolved placeholder renders its value.
type slotRole uint8

const (
	roleRaw       slotRole = iota // the value's display form
	roleLabeled                   // NullNamer's label, then the display form
	rolePatient                   // Namer.PatientName
	roleUser                      // Namer.UserName
	roleCaregiver                 // Namer.CaregiverName
)

// slot is one description segment resolved for a call: a literal, or a
// placeholder with its table (nil for the audited row) and column position
// looked up.
type slot struct {
	seg   *descSeg
	tbl   *relation.Table
	col   int
	role  slotRole
	label string
}

// Compile compiles ts for one call over ev's database and audited log,
// naming identifiers through n; progs[i] renders ts[i]. A placeholder
// naming a column its table lacks is a programming error and panics.
func Compile(ev *query.Evaluator, n Namer, ts []Template) []Program {
	progs := make([]Program, len(ts))
	slots := make([]slot, 0, 8*len(ts)) // a catalog description has 7-8 segments
	for i, t := range ts {
		slots = progs[i].compile(t, ev, n, slots)
	}
	return progs
}

// compile fills p for template t, appending its resolved slots to slots
// (which several programs may share as one backing array) and returning
// the extended slice.
func (p *Program) compile(t Template, ev *query.Evaluator, n Namer, slots []slot) []slot {
	tpl := t.pathTemplate()
	*p = Program{n: n}
	p.path, p.decs, p.form = tpl.Path, tpl.Decorations, tpl.prepared()
	insts := tpl.Path.Instances()
	_, null := n.(NullNamer)
	start := len(slots)
	slots = slices.Grow(slots, len(p.form.segs))
	for i := range p.form.segs {
		s := &p.form.segs[i]
		if s.lit != "" {
			slots = append(slots, slot{seg: s})
			continue
		}
		var tbl *relation.Table // nil: the audited row
		src := ev.Log()
		if s.inst > 0 {
			tbl = ev.Database().MustTable(insts[s.inst].Table)
			src = tbl
		}
		col, ok := src.ColumnIndex(s.col)
		if !ok {
			panic(fmt.Sprintf("explain: placeholder column %q is not in table %q", s.col, src.Name()))
		}
		sl := slot{seg: s, tbl: tbl, col: col}
		switch s.role {
		case "patient":
			sl.role, sl.label = rolePatient, patientLabel
		case "user":
			sl.role, sl.label = roleUser, userLabel
		case "caregiver":
			sl.role, sl.label = roleCaregiver, caregiverLabel
		}
		if null && sl.label != "" {
			sl.role = roleLabeled
		}
		slots = append(slots, sl)
	}
	p.slots = slots[start:len(slots):len(slots)]
	return slots
}

// rowOnlyHit is the one binding of a program whose description reads only
// the audited row.
var rowOnlyHit = []query.InstanceBinding{{}}

// bindings returns up to limit instance bindings of logRow. A program whose
// description reads only the audited row returns its one binding for any
// audited row without classifying it: callers render a template only for
// the rows its mask explains.
func (p *Program) bindings(ev *query.Evaluator, logRow, limit int) []query.InstanceBinding {
	switch {
	case p.form.rowOnly:
		if logRow >= 0 && logRow < ev.Log().NumRows() {
			return rowOnlyHit
		}
		return nil
	case len(p.decs) > 0:
		return ev.InstancesDecorated(pathmodel.DecoratedPath{Base: p.path, Decorations: p.decs}, logRow, limit)
	default:
		return ev.Instances(p.path, logRow, limit)
	}
}

// Render is the string sink: up to limit texts for logRow, what
// Template.Render returns for a row the template explains — an empty slice
// when a path program finds no binding.
func (p *Program) Render(ev *query.Evaluator, logRow, limit int) []string {
	bs := p.bindings(ev, logRow, limit)
	out := make([]string, 0, len(bs))
	var buf [256]byte
	for _, b := range bs {
		if p.form.generic {
			out = append(out, renderGeneric(p.path, ev, logRow, b, p.n))
			continue
		}
		text, _ := p.appendText(buf[:0], ev, logRow, b, false)
		out = append(out, string(text))
	}
	return out
}

// AppendNDJSON is the NDJSON sink: it appends logRow's explanation objects
// — {"template":…,"length":…,"text":…}, comma-separated, with a leading
// comma when sep — to dst and returns the extended slice and how many it
// wrote. The bytes are those of encoding the string sink's texts with
// AppendJSONString. A description text is escaped into dst piece by piece:
// pre-escaped literals are copied, integer, date and NULL values and
// NullNamer labels are appended with no scan, and only string values and
// Namer outputs are escaped. If a piece is not valid UTF-8 the text is
// rendered through the string sink and escaped whole instead, since an
// invalid tail byte can combine with the next piece into a different
// character. Generic templates always take that path.
func (p *Program) AppendNDJSON(dst []byte, ev *query.Evaluator, logRow, limit int, sep bool) ([]byte, int) {
	if p.form.generic {
		texts := p.Render(ev, logRow, limit)
		for _, text := range texts {
			dst = p.openObject(dst, sep)
			dst, _ = appendEscaped(dst, text)
			dst = append(dst, `"}`...)
			sep = true
		}
		return dst, len(texts)
	}
	bs := p.bindings(ev, logRow, limit)
	for _, b := range bs {
		dst = p.openObject(dst, sep)
		mark, exact := len(dst), false
		if p.form.valid {
			dst, exact = p.appendText(dst, ev, logRow, b, true)
		}
		if !exact {
			text, _ := p.appendText(nil, ev, logRow, b, false)
			dst, _ = appendEscaped(dst[:mark], string(text))
		}
		dst = append(dst, `"}`...)
		sep = true
	}
	return dst, len(bs)
}

// openObject appends a separating comma when sep and the object prefix up
// to the opening quote of the text.
func (p *Program) openObject(dst []byte, sep bool) []byte {
	if sep {
		dst = append(dst, ',')
	}
	return append(dst, p.form.prefix...)
}

// appendText appends binding b's description text: raw, or escaped as the
// body of a JSON string when esc. exact is false when esc met a piece that
// is not valid UTF-8, after which dst holds a partial text.
func (p *Program) appendText(dst []byte, ev *query.Evaluator, logRow int, b query.InstanceBinding, esc bool) (out []byte, exact bool) {
	audited := ev.Log()
	exact = true
	for i := range p.slots {
		s := &p.slots[i]
		if s.seg.lit != "" {
			if esc {
				dst = append(dst, s.seg.esc...)
			} else {
				dst = append(dst, s.seg.lit...)
			}
			continue
		}
		var v relation.Value
		if s.tbl == nil {
			v = audited.Cell(logRow, s.col)
		} else {
			v = s.tbl.Cell(b.Rows[s.seg.inst-1], s.col)
		}
		switch s.role {
		case roleRaw:
			dst, exact = appendValue(dst, v, esc)
		case roleLabeled:
			dst, exact = appendValue(append(dst, s.label...), v, esc)
		case rolePatient:
			dst, exact = appendPiece(dst, p.n.PatientName(v), esc)
		case roleUser:
			dst, exact = appendPiece(dst, p.n.UserName(v), esc)
		case roleCaregiver:
			dst, exact = appendPiece(dst, p.n.CaregiverName(v), esc)
		}
		if !exact {
			return dst, false
		}
	}
	return dst, true
}

// appendPiece appends s raw, or escaped when esc; ok is false when esc met
// invalid UTF-8.
func appendPiece(dst []byte, s string, esc bool) (out []byte, ok bool) {
	if esc {
		return appendEscaped(dst, s)
	}
	return append(dst, s...), true
}

// appendValue appends v's display form raw, or escaped when esc. Only
// string values can need escaping.
func appendValue(dst []byte, v relation.Value, esc bool) (out []byte, ok bool) {
	if esc {
		return appendValueEscaped(dst, v)
	}
	return v.AppendString(dst), true
}
