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
	"slices"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// Template is one explanation template: it classifies every access in the
// evaluator's log as explained or not, and renders natural-language
// explanation instances for individual accesses. *PathTemplate is its only
// implementation; the interface is sealed by an unexported method, and
// stays an interface so catalogs can be held as []Template.
//
// Classification is range-based: EvaluateRange is the primitive. It sets,
// in the mask the caller passes in, the bit of every row of [lo, hi) the
// template explains, and touches no other bit, so evaluating the ranges of
// a partition of [0, NumRows) into one mask sets exactly the bits Evaluate
// reports (the range-stitching differential tests enforce this for the
// whole catalog). Range evaluation is what lets the batch auditing engine
// shard a single template's mask across a worker pool: each range is
// evaluated on its own evaluator cursor (query.Evaluator.Clone), with
// path-backed templates sharing one compiled plan through the engine's
// plan cache. The mask is not synchronized, so concurrent ranges may share
// one only when every boundary between them is a multiple of 64.
type Template interface {
	// Name is a short stable identifier such as "appt-with-dr".
	Name() string
	// Length is the template's path length (number of joins); the paper
	// ranks multiple explanations for one access by ascending length.
	Length() int
	// SQL renders the template as its support-counting query.
	SQL() string
	// Evaluate returns one boolean per log row: whether this template
	// explains that access. It is EvaluateRange over [0, NumRows) into a
	// fresh mask, unpacked.
	Evaluate(ev *query.Evaluator) []bool
	// EvaluateRange sets bit r of dst for each row r of the half-open
	// log-row range [lo, hi) the template explains. dst must hold at least
	// hi bits.
	EvaluateRange(ev *query.Evaluator, lo, hi int, dst *bitset.Bits)
	// Render returns up to limit natural-language explanation instances for
	// the given log row, or nil when the template does not explain it.
	Render(ev *query.Evaluator, logRow, limit int, n Namer) []string

	// pathTemplate returns the template itself; it seals the interface.
	pathTemplate() *PathTemplate
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

// PathTemplate is a Template backed by a closed explanation path and,
// optionally, decorations (Definition 3): selection conditions over the
// path's bound instances, which make the template explain a subset of what
// the path alone explains. Desc, when non-empty, is a parameterized
// description string with [Alias.Column] placeholders (Example 2.2);
// otherwise a generic rendering is produced from the bound tuples.
type PathTemplate struct {
	TemplateName string
	Path         pathmodel.Path
	Decorations  []pathmodel.Decoration
	Desc         string

	form *textForm // Desc prepared against Path by NewPathTemplate
}

// prepared returns the template's prepared description, preparing it now
// for a template assembled without NewPathTemplate.
func (t *PathTemplate) prepared() *textForm {
	if t.form != nil {
		return t.form
	}
	return newTextForm(t.TemplateName, t.Length(), t.Desc, t.Path)
}

// NewPathTemplate wraps a closed path and its decorations as a template.
// Backward paths are reversed into forward orientation. It panics on an
// open path or on a decoration that references an instance the path does
// not have: templates are curated, so these are programming errors.
func NewPathTemplate(name string, p pathmodel.Path, desc string, decorations ...pathmodel.Decoration) *PathTemplate {
	if !p.Closed() {
		panic("explain: NewPathTemplate requires a closed path")
	}
	dp := pathmodel.NewDecoratedPath(p, decorations...)
	return &PathTemplate{TemplateName: name, Path: dp.Base, Decorations: dp.Decorations, Desc: desc,
		form: newTextForm(name, dp.Length(), desc, dp.Base)}
}

// decorated returns the template's path with its decorations.
func (t *PathTemplate) decorated() pathmodel.DecoratedPath {
	return pathmodel.DecoratedPath{Base: t.Path, Decorations: t.Decorations}
}

// Name implements Template.
func (t *PathTemplate) Name() string { return t.TemplateName }

// Length implements Template.
func (t *PathTemplate) Length() int { return t.Path.Length() }

// SQL implements Template: the path's support query, plus one condition
// per decoration.
func (t *PathTemplate) SQL() string { return t.decorated().SQL() }

// pathTemplate implements Template.
func (t *PathTemplate) pathTemplate() *PathTemplate { return t }

// Evaluate implements Template.
func (t *PathTemplate) Evaluate(ev *query.Evaluator) (out []bool) {
	n := ev.Log().NumRows()
	mask := bitset.New(n)
	t.EvaluateRange(ev, 0, n, mask)
	out = slices.Grow(out, n)
	for r := range n {
		out = append(out, mask.Get(r))
	}
	return out
}

// EvaluateRange implements Template. An undecorated path is prepared
// through the engine's shared plan cache, so repeated evaluation (or
// concurrent range shards) compile it only once; a decorated one is
// classified row by row. Either way disjoint ranges set exactly the bits
// of the full-range result.
func (t *PathTemplate) EvaluateRange(ev *query.Evaluator, lo, hi int, dst *bitset.Bits) {
	if len(t.Decorations) > 0 {
		ev.ExplainedRowsDecoratedRange(t.decorated(), lo, hi, dst)
		return
	}
	ev.Prepare(t.Path).ExplainedRange(lo, hi, dst)
}

// explains reports whether the template explains audited row r, counting
// the one-row range rather than writing a mask.
func (t *PathTemplate) explains(ev *query.Evaluator, r int) bool {
	if len(t.Decorations) > 0 {
		return ev.SupportDecoratedRange(t.decorated(), r, r+1) > 0
	}
	return ev.Prepare(t.Path).SupportRange(r, r+1) > 0
}

// Render implements Template. A template whose description reads only the
// audited row renders without enumerating instances (see Program), so its
// row is classified first: an unexplained row renders nil.
func (t *PathTemplate) Render(ev *query.Evaluator, logRow, limit int, n Namer) []string {
	if t.prepared().rowOnly {
		if logRow < 0 || logRow >= ev.Log().NumRows() || !t.explains(ev, logRow) {
			return nil
		}
	}
	var p Program // compiled for this one call
	p.compile(t, ev, n, nil)
	return p.Render(ev, logRow, limit)
}

// descSeg is one piece of a parsed description: literal text, raw and
// escaped as the body of a JSON string, or an [Alias.Column|role]
// placeholder resolved to the path instance the alias names (0 is the
// audited log row).
type descSeg struct {
	lit, esc string // literal text; empty for a placeholder
	inst     int
	col      string
	role     string
}

// textForm is a template's description prepared once, when the template is
// built: the parsed segments with every literal kept raw for the string
// sink and pre-escaped for the NDJSON sink, and the NDJSON object prefix
// {"template":<name>,"length":L,"text":" that opens each explanation.
type textForm struct {
	segs    []descSeg
	generic bool // no description: texts list the bound tuples (renderGeneric)
	rowOnly bool // a description whose every placeholder reads the audited row
	// valid reports that every literal is valid UTF-8, so a text's pieces
	// may be escaped one by one (see appendEscaped).
	valid  bool
	prefix string
}

// newTextForm prepares desc for a template of the given name and length
// over path p.
func newTextForm(name string, length int, desc string, p pathmodel.Path) *textForm {
	prefix := AppendJSONString([]byte(`{"template":`), name)
	prefix = append(strconv.AppendInt(append(prefix, `,"length":`...), int64(length), 10), `,"text":"`...)
	f := &textForm{generic: desc == "", valid: true, prefix: string(prefix)}
	if f.generic {
		return f
	}
	f.segs = parseDesc(desc, p)
	f.rowOnly = true
	for i := range f.segs {
		if s := &f.segs[i]; s.lit != "" {
			esc, ok := appendEscaped(nil, s.lit)
			s.esc, f.valid = string(esc), f.valid && ok
		} else if s.inst > 0 {
			f.rowOnly = false
		}
	}
	return f
}

// parseDesc splits desc into literal and placeholder segments against the
// path instances' aliases, those of its SQL (pathmodel.Path.InstLabel: "L"
// for the audited row, then each table name numbered per occurrence, L
// counting as the first Log: Appointments1, Groups2, Log2). A "|role"
// suffix selects name resolution: [L.Patient|patient], [L.User|user],
// [Appointments1.Doctor|caregiver]; without one the raw value is rendered.
// Tokens that name nothing stay in the text: "[tok]" for one without a dot,
// "[tok?]" for an unknown alias; an unterminated bracket passes through.
func parseDesc(desc string, p pathmodel.Path) []descSeg {
	alias := make(map[string]int, len(p.Instances()))
	for i := range p.Instances() {
		alias[p.InstLabel(i)] = i
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

// renderGeneric produces a readable fallback description by listing the
// bound tuples along the path.
func renderGeneric(p pathmodel.Path, ev *query.Evaluator, logRow int, b query.InstanceBinding, n Namer) string {
	log := ev.Log()
	lc := pathmodel.LogColumnsOf(log)
	patient, user := log.Cell(logRow, lc.Patient), log.Cell(logRow, lc.User)

	var hops []string
	insts := p.Instances()
	for i := 1; i < len(insts); i++ {
		if i-1 >= len(b.Rows) {
			break
		}
		tbl := ev.Database().MustTable(insts[i].Table)
		cols := tbl.Columns()
		fields := make([]string, len(cols))
		for ci, c := range cols {
			fields[ci] = c + "=" + tbl.Cell(b.Rows[i-1], ci).String()
		}
		hops = append(hops, fmt.Sprintf("%s(%s)", p.InstLabel(i), strings.Join(fields, ", ")))
	}
	return fmt.Sprintf("%s is connected to %s via %s",
		n.PatientName(patient), n.UserName(user), strings.Join(hops, " -> "))
}
