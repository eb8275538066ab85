// Package pathmodel implements the explanation-path formalism of Section 2
// of the paper. A Path is a walk through the schema graph that starts at the
// audited tuple's Log.Patient attribute, hops between table instances via
// equi-join conditions, and (when complete) terminates at the same tuple's
// Log.User attribute. Paths enforce the paper's restrictions by
// construction:
//
//   - simple (Definition 2): each attribute node is touched at most once and
//     each table instance contributes at most two nodes (its entry and exit
//     attributes);
//   - restricted (Definition 4): at most T distinct tables are referenced,
//     where the two sides of a self-join count once and transparent bridge
//     (mapping) tables count zero;
//   - length: the number of join conditions, with a bridged edge counting as
//     a single condition, matching the paper's treatment of the
//     caregiver/audit id mapping table.
package pathmodel

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// Well-known attributes of the access log. Every path starts at
// (LogTable, LogPatientColumn) and, when complete, ends at
// (LogTable, LogUserColumn) of the same log tuple (instance 0).
const (
	LogTable         = "Log"
	LogPatientColumn = "Patient"
	LogUserColumn    = "User"
	LogIDColumn      = "Lid"
	LogDateColumn    = "Date"
)

// RequiredLogColumns returns the Log columns every auditing workflow needs:
// the row id, date, user, and patient. Loaders and federation members
// validate input logs against this one list so the CLI and the library
// cannot drift apart on what a well-formed log is.
func RequiredLogColumns() []string {
	return []string{LogIDColumn, LogDateColumn, LogUserColumn, LogPatientColumn}
}

// LogColumns are the positions of the required columns in one log table,
// resolved once so per-row code reads cells by position, not by name.
type LogColumns struct{ Lid, Date, User, Patient int }

// LogColumnsOf resolves the required columns in t, which has been
// validated to hold them (a missing one resolves to position 0).
func LogColumnsOf(t *relation.Table) LogColumns {
	var c LogColumns
	c.Lid, _ = t.ColumnIndex(LogIDColumn)
	c.Date, _ = t.ColumnIndex(LogDateColumn)
	c.User, _ = t.ColumnIndex(LogUserColumn)
	c.Patient, _ = t.ColumnIndex(LogPatientColumn)
	return c
}

// StartAttr returns the start attribute of every explanation path.
func StartAttr() schemagraph.Attr {
	return schemagraph.Attr{Table: LogTable, Column: LogPatientColumn}
}

// EndAttr returns the end attribute of every explanation path.
func EndAttr() schemagraph.Attr {
	return schemagraph.Attr{Table: LogTable, Column: LogUserColumn}
}

// Instance is one tuple variable in the path's FROM clause. Instance 0 is
// always the audited Log tuple.
type Instance struct {
	Table string
	// Entry is the column through which the path joined into this instance
	// ("" for instance 0, which the path starts inside).
	Entry string
	// Exit is the column through which the path left this instance ("" while
	// the instance is the growing end, and for the final instance of an open
	// path).
	Exit string
}

// Cond is one equi-join condition: Insts[LeftInst].LeftCol =
// Insts[RightInst].RightCol, optionally translated through a transparent
// mapping bridge.
type Cond struct {
	LeftInst  int
	LeftCol   string
	RightInst int
	RightCol  string
	Via       *schemagraph.Bridge
}

// Path is a partially or fully built explanation path. The zero value is not
// usable; construct paths with Start or StartAt and extend them with Append.
// Paths are immutable: Append returns a new Path sharing no mutable state
// with its receiver.
//
// A path has an orientation: forward paths start at Log.Patient and close at
// Log.User (the paper's presentation); backward paths, used by the two-way
// and bridged miners, start at Log.User and close at Log.Patient. A closed
// backward path denotes the same explanation template as its Reverse.
type Path struct {
	insts  []Instance
	conds  []Cond
	edges  []schemagraph.Edge // the edge used at each step, for bridging
	start  string             // LogPatientColumn or LogUserColumn
	closed bool
}

// Start begins a new forward path from Log.Patient with the given first
// edge. It returns false if the edge does not leave Log.Patient or
// immediately re-enters the log tuple in a way the model forbids.
func Start(e schemagraph.Edge) (Path, bool) {
	return StartAt(e, LogPatientColumn)
}

// StartAt begins a path from the given log column (LogPatientColumn for the
// forward direction, LogUserColumn for the backward direction used by the
// two-way algorithm).
func StartAt(e schemagraph.Edge, startCol string) (Path, bool) {
	if startCol != LogPatientColumn && startCol != LogUserColumn {
		return Path{}, false
	}
	if (e.From != schemagraph.Attr{Table: LogTable, Column: startCol}) {
		return Path{}, false
	}
	p := Path{insts: []Instance{{Table: LogTable}}, start: startCol}
	return p.appendEdge(e)
}

// Append extends the path with edge e, returning the extended path and true,
// or the zero Path and false when the edge is not connected to the growing
// end or would violate the simple-path rules. Append never mutates the
// receiver.
func (p Path) Append(e schemagraph.Edge) (Path, bool) {
	if p.closed || len(p.insts) == 0 {
		return Path{}, false
	}
	return p.appendEdge(e)
}

func (p Path) appendEdge(e schemagraph.Edge) (Path, bool) {
	last := len(p.insts) - 1
	cur := p.insts[last]
	// Connectivity: the edge must leave the growing-end instance's table.
	if e.From.Table != cur.Table {
		return Path{}, false
	}
	// Node reuse: the exit attribute must differ from the entry attribute,
	// except at instance 0 where the path starts at its start column and
	// owns no entry.
	exitCol := e.From.Column
	if last == 0 {
		if exitCol != p.start {
			return Path{}, false
		}
	} else if exitCol == cur.Entry {
		return Path{}, false
	}

	// Closing move: the edge arrives at the opposite log attribute of the
	// audited tuple (instance 0): Log.User for forward paths, Log.Patient
	// for backward paths. Otherwise the edge opens a new table instance,
	// and the checks below, which read only p, reject it before anything
	// is copied.
	closing := e.To == (schemagraph.Attr{Table: LogTable, Column: p.endColumn()}) && last != 0
	if !closing {
		// A self-join edge must connect an attribute to itself across two
		// instances of one table; reaching a *different* table with a
		// SelfJoin edge would be a catalog bug.
		if e.Kind == schemagraph.SelfJoin && (e.From.Table != e.To.Table || e.From.Column != e.To.Column) {
			return Path{}, false
		}
		// At most two instances of any table: one base instance plus one
		// self-join partner. (The paper counts such a pair as one table
		// reference; allowing longer same-table chains would make the
		// "counted as a single reference" rule ambiguous.) Whether a
		// *specific* table may appear twice at all is the administrator's
		// self-join policy (§3.1 assumption 3); the miner enforces it via
		// the schema graph so the rule is identical for forward and
		// backward construction.
		if p.instancesOfTable(e.To.Table) >= 2 {
			return Path{}, false
		}
	}

	// The copies leave room for the append, so extending a path allocates
	// each slice once; the new path still owns its arrays, whose addresses
	// identify it.
	np := Path{
		insts: append(make([]Instance, 0, len(p.insts)+1), p.insts...),
		conds: append(make([]Cond, 0, len(p.conds)+1), p.conds...),
		edges: append(make([]schemagraph.Edge, 0, len(p.edges)+1), p.edges...),
		start: p.start,
	}
	np.insts[last].Exit = exitCol
	np.edges = append(np.edges, e)

	if closing {
		np.conds = append(np.conds, Cond{
			LeftInst: last, LeftCol: exitCol,
			RightInst: 0, RightCol: p.endColumn(),
			Via: e.Via,
		})
		np.closed = true
		return np, true
	}

	np.insts = append(np.insts, Instance{Table: e.To.Table, Entry: e.To.Column})
	np.conds = append(np.conds, Cond{
		LeftInst: last, LeftCol: exitCol,
		RightInst: len(np.insts) - 1, RightCol: e.To.Column,
		Via: e.Via,
	})
	return np, true
}

// InstancesOfTable returns how many instances of the named table the path
// references.
func (p Path) InstancesOfTable(table string) int { return p.instancesOfTable(table) }

func (p Path) instancesOfTable(table string) int {
	n := 0
	for _, in := range p.insts {
		if in.Table == table {
			n++
		}
	}
	return n
}

// endColumn returns the log column the path must reach to close.
func (p Path) endColumn() string {
	if p.start == LogUserColumn {
		return LogPatientColumn
	}
	return LogUserColumn
}

// StartColumn returns the log column the path starts from
// (LogPatientColumn for forward paths, LogUserColumn for backward paths).
func (p Path) StartColumn() string {
	if p.start == "" {
		return LogPatientColumn
	}
	return p.start
}

// Forward reports whether the path is oriented from Log.Patient to
// Log.User.
func (p Path) Forward() bool { return p.StartColumn() == LogPatientColumn }

// Edges returns the schema edges used to build the path, in append order.
// The returned slice must not be modified.
func (p Path) Edges() []schemagraph.Edge { return p.edges }

// Closed reports whether the path terminates at its end attribute, i.e.
// whether it is an explanation template rather than a prefix.
func (p Path) Closed() bool { return p.closed }

// Length returns the path length: the number of join conditions, with each
// bridged edge counting once.
func (p Path) Length() int { return len(p.conds) }

// NumTables returns the number of distinct tables referenced, with self-join
// pairs counted once (Definition 4's accounting). Bridge tables never appear
// as instances, so they are excluded by construction.
func (p Path) NumTables() int {
	set := make(map[string]bool, len(p.insts))
	for _, in := range p.insts {
		set[in.Table] = true
	}
	return len(set)
}

// Instances returns the path's table instances in join order. The returned
// slice must not be modified.
func (p Path) Instances() []Instance { return p.insts }

// Conds returns the path's join conditions in order. The returned slice must
// not be modified.
func (p Path) Conds() []Cond { return p.conds }

// LastAttr returns the attribute at the growing end: the entry attribute of
// the final instance for an open path, or the path's end attribute for a
// closed path.
func (p Path) LastAttr() schemagraph.Attr {
	if p.closed {
		return schemagraph.Attr{Table: LogTable, Column: p.endColumn()}
	}
	last := p.insts[len(p.insts)-1]
	return schemagraph.Attr{Table: last.Table, Column: last.Entry}
}

// ReverseEdge returns e traversed in the opposite direction, reversing any
// bridge.
func ReverseEdge(e schemagraph.Edge) schemagraph.Edge {
	return schemagraph.Edge{From: e.To, To: e.From, Kind: e.Kind, Via: e.Via.Reversed()}
}

// Reverse converts a closed backward path (from Log.User to Log.Patient)
// into the equivalent forward path. It panics on open or already-forward
// paths: reversing an open path segment has no anchored meaning. The result
// denotes the same explanation template (same condition set, same support).
func (p Path) Reverse() Path {
	if !p.closed {
		panic("pathmodel: Reverse requires a closed path")
	}
	if p.Forward() {
		return p
	}
	rev, ok := Start(ReverseEdge(p.edges[len(p.edges)-1]))
	if !ok {
		panic("pathmodel: Reverse failed to restart path: " + p.String())
	}
	for i := len(p.edges) - 2; i >= 0; i-- {
		rev, ok = rev.Append(ReverseEdge(p.edges[i]))
		if !ok {
			panic("pathmodel: Reverse failed to replay path: " + p.String())
		}
	}
	if !rev.closed {
		panic("pathmodel: Reverse produced an open path: " + p.String())
	}
	return rev
}

// InstLabel renders instance i as an alias such as "L" (the audited log
// tuple), "Appointments1", "Groups2" or "Log2": each table's instances are
// numbered in path order, L counting as the first Log. The SQL and the
// placeholders of a template description use the same aliases.
func (p Path) InstLabel(i int) string {
	if i == 0 {
		return "L"
	}
	n := 0
	for j := 0; j <= i; j++ {
		if p.insts[j].Table == p.insts[i].Table {
			n++
		}
	}
	return fmt.Sprintf("%s%d", p.insts[i].Table, n)
}

// Key returns a string that uniquely identifies this exact path (instances
// and ordered conditions). Two paths with equal keys behave identically for
// extension, so the miners use Key to de-duplicate the frontier.
func (p Path) Key() string {
	var b strings.Builder
	for _, c := range p.conds {
		fmt.Fprintf(&b, "%s.%s", p.InstLabel(c.LeftInst), c.LeftCol)
		if c.Via != nil {
			fmt.Fprintf(&b, "~%s(%s->%s)", c.Via.Table, c.Via.FromColumn, c.Via.ToColumn)
		}
		fmt.Fprintf(&b, "=%s.%s;", p.InstLabel(c.RightInst), c.RightCol)
	}
	if p.closed {
		b.WriteString("!")
	}
	return b.String()
}

// CanonicalKey returns a key that is invariant under reordering of the
// selection conditions and renaming of same-table instances. The paper's
// first optimization (§3.2.1, "Caching Selection Conditions and Support
// Values") observes that paths traversing the graph in different orders can
// impose the same condition set and therefore have equal support; the miner
// caches support by this key, and the query engine its compiled plans. The
// audited log tuple L is never renamed: support counts L's rows, so a
// second Log instance is not interchangeable with it.
func (p Path) CanonicalKey() string {
	// Group instance indices by table; within a table there are at most two
	// instances, so trying both labelings per multi-instance table costs at
	// most 2^k renderings for k such tables (k <= T). A Log pair holds L,
	// which keeps its label.
	byTable := make(map[string][]int)
	for i, in := range p.insts {
		byTable[in.Table] = append(byTable[in.Table], i)
	}
	var multi [][]int
	for _, idxs := range byTable {
		if len(idxs) == 2 && idxs[0] != 0 {
			multi = append(multi, idxs)
		}
	}
	sort.Slice(multi, func(i, j int) bool { return multi[i][0] < multi[j][0] })

	label := make(map[int]string, len(p.insts))
	assignBase := func() {
		for i, in := range p.insts {
			if i == 0 {
				label[i] = "L"
			} else {
				label[i] = in.Table
			}
		}
	}
	render := func() string {
		conds := make([]string, 0, len(p.conds))
		for _, c := range p.conds {
			l := label[c.LeftInst] + "." + c.LeftCol
			r := label[c.RightInst] + "." + c.RightCol
			via := ""
			if c.Via != nil {
				via = "~" + c.Via.Table
			}
			// Equality is symmetric: order the two sides lexically.
			if r < l {
				l, r = r, l
			}
			conds = append(conds, l+via+"="+r)
		}
		sort.Strings(conds)
		s := strings.Join(conds, ";")
		if p.closed {
			s += "!"
		}
		return s
	}

	best := ""
	n := len(multi)
	for mask := 0; mask < 1<<n; mask++ {
		assignBase()
		for bit, idxs := range multi {
			a, b := idxs[0], idxs[1]
			if mask&(1<<bit) != 0 {
				a, b = b, a
			}
			label[a] = p.insts[a].Table + "@1"
			label[b] = p.insts[b].Table + "@2"
		}
		s := render()
		if best == "" || s < best {
			best = s
		}
	}
	if best == "" {
		best = render()
	}
	return best
}

// sql renders the path as the support-counting query of §3.2, using the
// DISTINCT-subquery rewriting of the "Reducing Result Multiplicity"
// optimization for every non-log instance, with extra[i] selected beside
// instance i's entry and exit columns and conds appended to the WHERE
// clause (DecoratedPath.SQL).
func (p Path) sql(extra [][]string, conds []string) string {
	var from []string
	from = append(from, "Log L")
	for i := 1; i < len(p.insts); i++ {
		in := p.insts[i]
		var cols []string
		add := func(c string) {
			if c != "" && !slices.Contains(cols, c) {
				cols = append(cols, c)
			}
		}
		add(in.Entry)
		add(in.Exit)
		if i < len(extra) {
			for _, c := range extra[i] {
				add(c)
			}
		}
		from = append(from, fmt.Sprintf("(SELECT DISTINCT %s FROM %s) %s",
			strings.Join(cols, ", "), in.Table, p.InstLabel(i)))
	}
	var where []string
	bridgeN := 0
	for _, c := range p.conds {
		l := p.InstLabel(c.LeftInst) + "." + c.LeftCol
		r := p.InstLabel(c.RightInst) + "." + c.RightCol
		if c.Via == nil {
			where = append(where, l+" = "+r)
			continue
		}
		bridgeN++
		m := fmt.Sprintf("%s_m%d", c.Via.Table, bridgeN)
		from = append(from, fmt.Sprintf("%s %s", c.Via.Table, m))
		where = append(where, fmt.Sprintf("%s = %s.%s", l, m, c.Via.FromColumn))
		where = append(where, fmt.Sprintf("%s.%s = %s", m, c.Via.ToColumn, r))
	}
	where = append(where, conds...)
	return fmt.Sprintf("SELECT COUNT(DISTINCT L.%s)\nFROM %s\nWHERE %s",
		LogIDColumn, strings.Join(from, ",\n     "), strings.Join(where, "\n  AND "))
}

// String returns a compact one-line rendering of the path's conditions.
func (p Path) String() string {
	parts := make([]string, 0, len(p.conds))
	for _, c := range p.conds {
		l := p.InstLabel(c.LeftInst) + "." + c.LeftCol
		r := p.InstLabel(c.RightInst) + "." + c.RightCol
		if c.Via != nil {
			parts = append(parts, fmt.Sprintf("%s =[%s]= %s", l, c.Via.Table, r))
		} else {
			parts = append(parts, l+" = "+r)
		}
	}
	return strings.Join(parts, " AND ")
}
