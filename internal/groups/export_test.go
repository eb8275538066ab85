package groups

import "repro/internal/relation"

// UserIndex returns the node index of a user id, or -1.
func (g *UserGraph) UserIndex(u relation.Value) int {
	if i, ok := g.indexOf[u]; ok {
		return i
	}
	return -1
}

// Weight returns the edge weight between node indexes a and b (0 if absent).
func (g *UserGraph) Weight(a, b int) float64 { return g.Adj[a][b] }
