// Package groups implements Section 4 of the paper: inferring collaborative
// user groups from the access log. It builds the m-by-n patient/user matrix
// A with A[i,j] = 1/(number of users who accessed patient i's record),
// derives the user-similarity graph W = A-transpose-A, clusters the weighted
// graph by maximizing Newman's modularity (a Louvain-style greedy
// optimization standing in for the paper's Java implementation of [21]),
// recursively re-clusters each cluster to form a hierarchy, and materializes
// the Groups(GroupDepth, GroupID, User) table whose self-join the mining
// algorithms exploit.
package groups

import (
	"sort"

	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// UserGraph is the weighted user-similarity graph: nodes are user ids (audit
// ids) and edge weights follow W = A-transpose-A, excluding self-loops. The
// paper's construction ignores how many times a user accessed a record —
// only whether they accessed it at all.
type UserGraph struct {
	// Users holds the node ids in index order.
	Users []relation.Value
	// Adj[i] maps neighbor index -> edge weight.
	Adj []map[int]float64

	indexOf map[relation.Value]int
}

// NumUsers returns the number of nodes.
func (g *UserGraph) NumUsers() int { return len(g.Users) }

// NodeWeight returns the sum of the weights of edges incident to node a (the
// paper's definition of a node's weight).
func (g *UserGraph) NodeWeight(a int) float64 {
	var s float64
	for _, w := range g.Adj[a] {
		s += w
	}
	return s
}

// BuildUserGraph constructs the similarity graph from an access log. For
// each patient accessed by k distinct users, every pair of those users gains
// edge weight 1/k^2 (the W = A-transpose-A entry contribution), following
// Example 4.1.
func BuildUserGraph(log *relation.Table) *UserGraph {
	ui, ok := log.ColumnIndex(pathmodel.LogUserColumn)
	if !ok {
		panic("groups: log lacks User column")
	}
	pi, ok := log.ColumnIndex(pathmodel.LogPatientColumn)
	if !ok {
		panic("groups: log lacks Patient column")
	}

	// patient -> distinct users who accessed it, in first-seen order.
	g := &UserGraph{indexOf: make(map[relation.Value]int)}
	patientOrd := make(map[relation.Value]int)
	var patientUsers [][]int
	userInPatient := make(map[[2]int]bool)

	for r := 0; r < log.NumRows(); r++ {
		u, p := log.Cell(r, ui), log.Cell(r, pi)
		uidx, ok := g.indexOf[u]
		if !ok {
			uidx = len(g.Users)
			g.indexOf[u] = uidx
			g.Users = append(g.Users, u)
		}
		pord, ok := patientOrd[p]
		if !ok {
			pord = len(patientUsers)
			patientOrd[p] = pord
			patientUsers = append(patientUsers, nil)
		}
		key := [2]int{pord, uidx}
		if !userInPatient[key] {
			userInPatient[key] = true
			patientUsers[pord] = append(patientUsers[pord], uidx)
		}
	}

	g.Adj = make([]map[int]float64, len(g.Users))
	for i := range g.Adj {
		g.Adj[i] = make(map[int]float64)
	}
	for _, users := range patientUsers {
		k := float64(len(users))
		if k < 2 {
			continue
		}
		w := 1 / (k * k)
		for i := 0; i < len(users); i++ {
			for j := i + 1; j < len(users); j++ {
				a, b := users[i], users[j]
				g.Adj[a][b] += w
				g.Adj[b][a] += w
			}
		}
	}
	return g
}

// induced returns the subgraph over the given node indexes, with nodes
// renumbered 0..len-1 and a mapping back to the parent indexes.
func (g *UserGraph) induced(nodes []int) (*UserGraph, []int) {
	sub := &UserGraph{indexOf: make(map[relation.Value]int, len(nodes))}
	back := make([]int, len(nodes))
	pos := make(map[int]int, len(nodes))
	for i, n := range nodes {
		pos[n] = i
		back[i] = n
		sub.Users = append(sub.Users, g.Users[n])
		sub.indexOf[g.Users[n]] = i
	}
	sub.Adj = make([]map[int]float64, len(nodes))
	for i := range sub.Adj {
		sub.Adj[i] = make(map[int]float64)
	}
	for i, n := range nodes {
		for nb, w := range g.Adj[n] {
			if j, ok := pos[nb]; ok {
				sub.Adj[i][j] = w
			}
		}
	}
	return sub, back
}

// sortedNeighbors returns the neighbor indexes of node a in ascending order;
// used to keep clustering deterministic.
func (g *UserGraph) sortedNeighbors(a int) []int {
	out := make([]int, 0, len(g.Adj[a]))
	for nb := range g.Adj[a] {
		out = append(out, nb)
	}
	sort.Ints(out)
	return out
}
