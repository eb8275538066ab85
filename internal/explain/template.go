// Package explain turns paths into usable explanation templates: named,
// human-describable predicates over log rows that can also render the
// natural-language explanation instances of §2.1 ("Alice had an appointment
// with Dave on 1/1/2010"). It hosts the hand-crafted CareWeb template
// catalog used throughout the paper's evaluation, including the decorated
// repeat-access template whose temporal condition cannot be expressed as a
// simple path.
package explain

import (
	"fmt"
	"strings"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// Template is one explanation template: it classifies every access in the
// evaluator's log as explained or not, and renders natural-language
// explanation instances for individual accesses.
//
// Classification is range-based: EvaluateRange is the primitive, and
// Evaluate is the full-range convenience every implementation must keep
// consistent with it — concatenating EvaluateRange over a partition of
// [0, NumRows) must be byte-identical to Evaluate (the range-stitching
// differential tests enforce this for the whole catalog). Range evaluation
// is what lets the batch auditing engine shard a single template's mask
// across a worker pool: disjoint ranges may be evaluated concurrently, each
// on its own evaluator cursor (query.Evaluator.Clone), with path-backed
// templates sharing one compiled plan through the engine's plan cache.
type Template interface {
	// Name is a short stable identifier such as "appt-with-dr".
	Name() string
	// Length is the template's path length (number of joins); the paper
	// ranks multiple explanations for one access by ascending length.
	Length() int
	// SQL renders the template as its support-counting query.
	SQL() string
	// Evaluate returns one boolean per log row: whether this template
	// explains that access. It is equivalent to
	// EvaluateRange(ev, 0, NumRows).
	Evaluate(ev *query.Evaluator) []bool
	// EvaluateRange classifies the half-open log-row range [lo, hi),
	// returning hi-lo booleans: element i is Evaluate(ev)[lo+i].
	EvaluateRange(ev *query.Evaluator, lo, hi int) []bool
	// Render returns up to limit natural-language explanation instances for
	// the given log row, or nil when the template does not explain it.
	Render(ev *query.Evaluator, logRow, limit int, n Namer) []string
}

// Namer maps identifiers to display names so explanations read like the
// paper's examples. NullNamer renders raw ids.
type Namer interface {
	PatientName(relation.Value) string
	// UserName resolves an audit-id user value.
	UserName(relation.Value) string
	// CaregiverName resolves a caregiver-id user value.
	CaregiverName(relation.Value) string
}

// NullNamer renders identifiers as-is.
type NullNamer struct{}

// NullNamer's labels, which precede the raw identifier.
const (
	patientLabel   = "patient "
	userLabel      = "user "
	caregiverLabel = "caregiver "
)

// PatientName implements Namer.
func (NullNamer) PatientName(v relation.Value) string { return labeled(patientLabel, v) }

// UserName implements Namer.
func (NullNamer) UserName(v relation.Value) string { return labeled(userLabel, v) }

// CaregiverName implements Namer.
func (NullNamer) CaregiverName(v relation.Value) string { return labeled(caregiverLabel, v) }

// labeled renders label followed by v with one allocation, the result.
func labeled(label string, v relation.Value) string {
	var buf [48]byte
	return string(v.AppendString(append(buf[:0], label...)))
}

// PathTemplate is a Template backed by a closed explanation path. Desc, when
// non-empty, is a parameterized description string with [Alias.Column]
// placeholders (Example 2.2); otherwise a generic rendering is produced from
// the bound tuples.
type PathTemplate struct {
	TemplateName string
	Path         pathmodel.Path
	Desc         string

	desc []descSeg // Desc parsed against Path by NewPathTemplate
}

// NewPathTemplate wraps a closed path as a template. Backward paths are
// reversed into forward orientation.
func NewPathTemplate(name string, p pathmodel.Path, desc string) *PathTemplate {
	if !p.Closed() {
		panic("explain: NewPathTemplate requires a closed path")
	}
	if !p.Forward() {
		p = p.Reverse()
	}
	return &PathTemplate{TemplateName: name, Path: p, Desc: desc, desc: parseDesc(desc, p)}
}

// Name implements Template.
func (t *PathTemplate) Name() string { return t.TemplateName }

// Length implements Template.
func (t *PathTemplate) Length() int { return t.Path.Length() }

// SQL implements Template.
func (t *PathTemplate) SQL() string { return t.Path.SQL() }

// Evaluate implements Template. The path is prepared through the engine's
// shared plan cache, so repeated evaluation (or concurrent range shards)
// compile it only once.
func (t *PathTemplate) Evaluate(ev *query.Evaluator) []bool {
	return ev.Prepare(t.Path).ExplainedRows()
}

// EvaluateRange implements Template.
func (t *PathTemplate) EvaluateRange(ev *query.Evaluator, lo, hi int) []bool {
	return ev.Prepare(t.Path).ExplainedRange(lo, hi)
}

// Render implements Template.
func (t *PathTemplate) Render(ev *query.Evaluator, logRow, limit int, n Namer) []string {
	return renderBindings(t.desc, t.Desc, t.Path, ev, logRow, ev.Instances(t.Path, logRow, limit), n)
}

// descSeg is one piece of a parsed description: literal text, or an
// [Alias.Column|role] placeholder resolved to the path instance the alias
// names (0 is the audited log row).
type descSeg struct {
	lit  string // literal text; empty for a placeholder
	inst int
	col  string
	role string
}

// parseDesc splits desc into literal and placeholder segments against p's
// instance aliases ("L" for the audited row, then each table name numbered
// per occurrence: Appointments1, Groups2). A "|role" suffix selects name
// resolution: [L.Patient|patient], [L.User|user],
// [Appointments1.Doctor|caregiver]; without one the raw value is rendered.
// Tokens that name nothing stay in the text: "[tok]" for one without a dot,
// "[tok?]" for an unknown alias; an unterminated bracket passes through.
func parseDesc(desc string, p pathmodel.Path) []descSeg {
	alias := map[string]int{"L": 0}
	seen := make(map[string]int)
	for i, in := range p.Instances()[1:] {
		seen[in.Table]++
		alias[fmt.Sprintf("%s%d", in.Table, seen[in.Table])] = i + 1
	}
	var segs []descSeg
	lit := func(s string) {
		if s == "" {
			return
		}
		if k := len(segs) - 1; k >= 0 && segs[k].lit != "" {
			segs[k].lit += s
			return
		}
		segs = append(segs, descSeg{lit: s})
	}
	for rest := desc; ; {
		i := strings.IndexByte(rest, '[')
		j := -1
		if i >= 0 {
			j = strings.IndexByte(rest[i:], ']')
		}
		if j < 0 {
			lit(rest)
			return segs
		}
		lit(rest[:i])
		token, role, _ := strings.Cut(rest[i+1:i+j], "|")
		rest = rest[i+j+1:]
		name, col, dotted := strings.Cut(token, ".")
		inst, known := alias[name]
		switch {
		case !dotted:
			lit("[" + token + "]")
		case !known:
			lit("[" + token + "?]")
		default:
			segs = append(segs, descSeg{inst: inst, col: col, role: role})
		}
	}
}

// renderBindings renders one text per binding of the log row: through the
// parsed description segs when the template has one (parsed here when the
// template was not built by its constructor), generically otherwise. Each
// placeholder's table and column position are resolved once per call (see
// resolveSlots), and the texts are assembled in one buffer reused across
// the row's bindings.
func renderBindings(segs []descSeg, desc string, p pathmodel.Path, ev *query.Evaluator, logRow int, bindings []query.InstanceBinding, n Namer) []string {
	out := make([]string, 0, len(bindings))
	if desc == "" {
		for _, b := range bindings {
			out = append(out, renderGeneric(p, ev, logRow, b, n))
		}
		return out
	}
	if len(bindings) == 0 {
		return out
	}
	if segs == nil {
		segs = parseDesc(desc, p)
	}
	var slotBuf [16]slot
	slots := resolveSlots(slotBuf[:0], segs, p, ev, n)
	audited := ev.Log().Row(logRow)
	var buf [256]byte
	text := buf[:0]
	for _, b := range bindings {
		text = text[:0]
		for i := range slots {
			s := &slots[i]
			if s.lit != "" {
				text = append(text, s.lit...)
				continue
			}
			var v relation.Value
			if s.tbl == nil {
				v = audited[s.col]
			} else {
				v = s.tbl.Row(b.Rows[s.inst-1])[s.col]
			}
			switch s.role {
			case roleRaw:
				text = v.AppendString(text)
			case roleLabeled:
				text = v.AppendString(append(text, s.label...))
			case rolePatient:
				text = append(text, n.PatientName(v)...)
			case roleUser:
				text = append(text, n.UserName(v)...)
			case roleCaregiver:
				text = append(text, n.CaregiverName(v)...)
			}
		}
		out = append(out, string(text))
	}
	return out
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

// slot is one description segment resolved for a render call: literal
// text, or a placeholder with its table (nil for the audited row, whose
// value is the same for every binding) and column position looked up.
type slot struct {
	lit   string
	inst  int
	tbl   *relation.Table
	col   int
	role  slotRole
	label string
}

// resolveSlots appends segs resolved against the path's instances to dst:
// each placeholder's table and column position, and how its role renders
// under n. A NullNamer role becomes its label, appended straight into the
// text with no intermediate string; other Namers are called per value. A
// placeholder naming a column its table lacks is a programming error and
// panics, as reading it would.
func resolveSlots(dst []slot, segs []descSeg, p pathmodel.Path, ev *query.Evaluator, n Namer) []slot {
	_, null := n.(NullNamer)
	insts := p.Instances()
	for _, s := range segs {
		if s.lit != "" {
			dst = append(dst, slot{lit: s.lit})
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
		sl := slot{inst: s.inst, tbl: tbl, col: col}
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
		dst = append(dst, sl)
	}
	return dst
}

// renderGeneric produces a readable fallback description by listing the
// bound tuples along the path.
func renderGeneric(p pathmodel.Path, ev *query.Evaluator, logRow int, b query.InstanceBinding, n Namer) string {
	log := ev.Log()
	patient := log.Get(logRow, pathmodel.LogPatientColumn)
	user := log.Get(logRow, pathmodel.LogUserColumn)

	var hops []string
	insts := p.Instances()
	seen := make(map[string]int)
	for i := 1; i < len(insts); i++ {
		seen[insts[i].Table]++
		if i-1 >= len(b.Rows) {
			break
		}
		tbl := ev.Database().MustTable(insts[i].Table)
		row := tbl.Row(b.Rows[i-1])
		cols := tbl.Columns()
		fields := make([]string, len(cols))
		for ci, c := range cols {
			fields[ci] = c + "=" + row[ci].String()
		}
		hops = append(hops, fmt.Sprintf("%s%d(%s)", insts[i].Table, seen[insts[i].Table], strings.Join(fields, ", ")))
	}
	return fmt.Sprintf("%s is connected to %s via %s",
		n.PatientName(patient), n.UserName(user), strings.Join(hops, " -> "))
}
