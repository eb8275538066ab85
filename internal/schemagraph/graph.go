// Package schemagraph models the database schema as the graph G of
// Definition 1 in the paper: nodes are attributes (table, column) and edges
// are the equi-join conditions that explanation paths may traverse. Per
// §3.1, edges are restricted to key/foreign-key relationships,
// administrator-provided relationships, and explicitly allowed self-joins.
//
// The package also models the paper's mapping-table wrinkle (§5.3.3): the
// CareWeb extract identifies users by caregiver id in data set A and by
// audit id in data set B, joined by a mapping table that the paper does not
// count against the path length or the table budget T. Such hops are
// represented as a Bridge attached to an ordinary edge, so a bridged edge
// expands to two SQL conditions but counts as one path step.
package schemagraph

import (
	"fmt"
)

// Attr identifies one attribute (column) of one table in the schema.
type Attr struct {
	Table  string
	Column string
}

func (a Attr) String() string { return a.Table + "." + a.Column }

// EdgeKind records why an edge is in the catalog, mirroring §3.1's
// restrictions on which joins mining may use.
type EdgeKind uint8

const (
	// KeyFK marks a key/foreign-key equi-join.
	KeyFK EdgeKind = iota
	// Admin marks an administrator-provided relationship between two
	// attributes (for example, two foreign keys referencing the same key).
	Admin
	// SelfJoin marks a self-join on a single attribute that the
	// administrator has explicitly allowed (for example,
	// Groups.GroupID = Groups2.GroupID).
	SelfJoin
)

func (k EdgeKind) String() string {
	switch k {
	case KeyFK:
		return "key-fk"
	case Admin:
		return "admin"
	case SelfJoin:
		return "self-join"
	}
	return fmt.Sprintf("EdgeKind(%d)", k)
}

// Bridge is a transparent hop through a mapping table: a bridged edge
// From = B.FromColumn AND B.ToColumn = To expands to two conditions but, as
// in the paper's experimental setup, does not count toward path length or
// the table budget T.
type Bridge struct {
	Table      string
	FromColumn string
	ToColumn   string
}

// Reversed returns the bridge traversed in the opposite direction.
func (b *Bridge) Reversed() *Bridge {
	if b == nil {
		return nil
	}
	return &Bridge{Table: b.Table, FromColumn: b.ToColumn, ToColumn: b.FromColumn}
}

// Edge is a directed join edge in the schema graph. Mining extends paths by
// appending edges, so every undirected relationship appears twice, once per
// direction.
type Edge struct {
	From Attr
	To   Attr
	Kind EdgeKind
	Via  *Bridge // optional transparent mapping-table hop
}

func (e Edge) String() string {
	if e.Via != nil {
		return fmt.Sprintf("%s =[via %s]= %s", e.From, e.Via.Table, e.To)
	}
	return fmt.Sprintf("%s = %s", e.From, e.To)
}

// Graph is the edge catalog handed to the mining algorithms.
type Graph struct {
	edges       []Edge
	byFromTable map[string][]Edge // the edges of each From table, in edges' order
	selfJoinOK  map[Attr]bool
}

// NewGraph returns an empty schema graph.
func NewGraph() *Graph {
	return &Graph{
		byFromTable: make(map[string][]Edge),
		selfJoinOK:  make(map[Attr]bool),
	}
}

// addDirected appends one directed edge.
func (g *Graph) addDirected(e Edge) {
	g.byFromTable[e.From.Table] = append(g.byFromTable[e.From.Table], e)
	g.edges = append(g.edges, e)
}

// AddRelationship registers an undirected relationship between two
// attributes, producing both directed edges. kind should be KeyFK or Admin.
func (g *Graph) AddRelationship(a, b Attr, kind EdgeKind) {
	if kind == SelfJoin {
		panic("schemagraph: use AllowSelfJoin for self-join edges")
	}
	g.addDirected(Edge{From: a, To: b, Kind: kind})
	g.addDirected(Edge{From: b, To: a, Kind: kind})
}

// AddBridgedRelationship registers an undirected relationship between two
// attributes that must be translated through a mapping table. The bridge is
// stated in the a-to-b direction and is reversed automatically for the
// opposite edge.
func (g *Graph) AddBridgedRelationship(a, b Attr, kind EdgeKind, via Bridge) {
	v := via
	g.addDirected(Edge{From: a, To: b, Kind: kind, Via: &v})
	r := *via.Reversed()
	g.addDirected(Edge{From: b, To: a, Kind: kind, Via: &r})
}

// AllowSelfJoin registers attr as usable in a self-join
// (attr = attr across two instances of its table) and adds the
// corresponding edge to the catalog.
func (g *Graph) AllowSelfJoin(attr Attr) {
	if g.selfJoinOK[attr] {
		return
	}
	g.selfJoinOK[attr] = true
	g.addDirected(Edge{From: attr, To: attr, Kind: SelfJoin})
}

// Edges returns all directed edges. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgesFromTable returns the directed edges whose From attribute belongs to
// the named table. The returned slice must not be modified.
func (g *Graph) EdgesFromTable(table string) []Edge { return g.byFromTable[table] }

// EdgesFromAttr returns the directed edges leaving exactly the given
// attribute.
func (g *Graph) EdgesFromAttr(a Attr) []Edge {
	var out []Edge
	for _, e := range g.byFromTable[a.Table] {
		if e.From == a {
			out = append(out, e)
		}
	}
	return out
}

// TableHasSelfJoin reports whether the named table has at least one
// attribute allowed in self-joins, i.e. whether the administrator permits
// the table to appear twice in one explanation path (§3.1 assumption 3).
func (g *Graph) TableHasSelfJoin(table string) bool {
	for a := range g.selfJoinOK {
		if a.Table == table {
			return true
		}
	}
	return false
}
