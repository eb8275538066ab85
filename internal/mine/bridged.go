package mine

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/schemagraph"
)

// bridged runs the bridged algorithm of §3.3.1 with half-length bridgeLen
// (the paper's Bridge-l): a two-way expansion up to length bridgeLen, after
// which candidate explanations of every greater length n are assembled by
// connecting supported forward paths to supported backward paths that share
// a bridge edge. For n <= 2*bridgeLen-1 the candidates come directly from
// the mined halves; beyond that the middle edges are enumerated from the
// schema, which is where the candidate space grows exponentially — the
// trade-off Figure 13 quantifies. bridgeLen must be at least 2.
func bridged(o Oracle, g *schemagraph.Graph, opt Options, bridgeLen int) Result {
	if bridgeLen < 2 {
		panic("mine: bridged requires bridgeLen >= 2")
	}
	m := newMiner(o, g, opt)
	l := bridgeLen
	if l > opt.MaxLength {
		l = opt.MaxLength
	}

	// Phase 1: two-way expansion to length l, keeping per-length frontiers.
	fwdByLen := make([][]pathmodel.Path, l+1)
	bwdByLen := make([][]pathmodel.Path, l+1)
	fwdByLen[1] = m.initialPaths(pathmodel.LogPatientColumn)
	bwdByLen[1] = m.initialPaths(pathmodel.LogUserColumn)
	m.markLength(1)
	for length := 2; length <= l; length++ {
		fwdByLen[length] = m.expandLevel(fwdByLen[length-1])
		bwdByLen[length] = m.expandLevel(bwdByLen[length-1])
		m.markLength(length)
	}

	// Index backward paths of each length by their bridge edge (the edge at
	// their growing end), expressed in forward orientation.
	bwdByBridge := make([]map[string][]pathmodel.Path, l+1)
	for k := 2; k <= l; k++ {
		idx := make(map[string][]pathmodel.Path)
		for _, b := range bwdByLen[k] {
			if b.Closed() {
				continue
			}
			edges := b.Edges()
			key := undirectedEdgeKey(edges[len(edges)-1])
			idx[key] = append(idx[key], b)
		}
		bwdByBridge[k] = idx
	}

	// Phase 2: assemble candidates of lengths l+1..M. Each length's fused
	// candidates are collected in deterministic order and admitted as one
	// batch, so their distinct support queries run through the parallel
	// candidate-evaluation stage like every expansion level.
	seen := make(map[string]bool)
	for n := l + 1; n <= opt.MaxLength; n++ {
		k := n - l + 1
		if k > l {
			k = l
		}
		mid := n - l - k + 1 // number of schema edges enumerated in the middle

		var cands []pathmodel.Path
		for _, f := range fwdByLen[l] {
			if f.Closed() {
				continue
			}
			m.extendAndBridge(f, mid, bwdByBridge[k], seen, &cands)
		}
		m.admitBatch(cands)
		m.markLength(n)
	}
	return m.result()
}

// extendAndBridge grows f by exactly mid unchecked schema edges and then
// attempts to fuse each result with every backward path sharing its final
// edge. Fused candidates are appended to *cands for batch admission.
func (m *miner) extendAndBridge(f pathmodel.Path, mid int, byBridge map[string][]pathmodel.Path, seen map[string]bool, cands *[]pathmodel.Path) {
	if mid == 0 {
		m.bridgeWith(f, byBridge, seen, cands)
		return
	}
	for _, e := range m.graph.EdgesFromTable(f.LastAttr().Table) {
		cand, ok := m.appendEdge(f, e)
		if !ok || cand.Closed() {
			continue
		}
		if cand.NumTables() > m.opt.MaxTables {
			continue
		}
		m.extendAndBridge(cand, mid-1, byBridge, seen, cands)
	}
}

// bridgeWith fuses the open forward path p with every backward path whose
// bridge edge is p's final edge (byBridge is keyed by that edge, direction
// ignored, so the lookup is the comparison), replaying the backward path's
// remaining edges in reverse so the path-construction rules vet the fused
// candidate.
func (m *miner) bridgeWith(p pathmodel.Path, byBridge map[string][]pathmodel.Path, seen map[string]bool, cands *[]pathmodel.Path) {
	edges := p.Edges()
	if len(edges) == 0 {
		return
	}
	key := undirectedEdgeKey(edges[len(edges)-1])
	for _, b := range byBridge[key] {
		bEdges := b.Edges()
		cand, ok := p, true
		for i := len(bEdges) - 2; i >= 0 && ok; i-- {
			cand, ok = m.appendEdge(cand, pathmodel.ReverseEdge(bEdges[i]))
		}
		if !ok || !cand.Closed() {
			continue
		}
		if cand.NumTables() > m.opt.MaxTables || cand.Length() > m.opt.MaxLength {
			continue
		}
		if ck := cand.Key(); !seen[ck] {
			seen[ck] = true
			*cands = append(*cands, cand)
		}
	}
}

// undirectedEdgeKey renders an edge ignoring direction, so a forward edge
// and the reversed traversal of the same relationship share a key.
func undirectedEdgeKey(e schemagraph.Edge) string {
	a, b := e.From.String(), e.To.String()
	if b < a {
		a, b = b, a
	}
	via := ""
	if e.Via != nil {
		via = "~" + e.Via.Table
	}
	return a + via + "=" + b
}

// Algorithm names used by the experiment harness and CLI.
const (
	AlgoOneWay = "one-way"
	AlgoTwoWay = "two-way"
)

// AlgoBridge returns the canonical name of the bridged algorithm with
// half-length l (for example "bridge-2").
func AlgoBridge(l int) string { return fmt.Sprintf("bridge-%d", l) }

// Run dispatches a mining run by algorithm name: "one-way", "two-way", or
// "bridge-N".
func Run(algo string, ev *query.Evaluator, g *schemagraph.Graph, opt Options) (Result, error) {
	return RunWith(algo, EvaluatorOracle(ev), g, opt)
}

// RunWith dispatches a mining run by algorithm name against an arbitrary
// support oracle; the federated auditing layer passes its cross-shard
// summing oracle here. A MaxLength below 1, a SupportFraction that is NaN
// or outside [0, 1], and a name that is not exactly "one-way", "two-way" or
// AlgoBridge(N) with N >= 2 are errors.
func RunWith(algo string, o Oracle, g *schemagraph.Graph, opt Options) (Result, error) {
	if opt.MaxLength < 1 {
		return Result{}, fmt.Errorf("mine: MaxLength must be at least 1, got %d", opt.MaxLength)
	}
	if s := opt.SupportFraction; math.IsNaN(s) || s < 0 || s > 1 {
		return Result{}, fmt.Errorf("mine: SupportFraction must be in [0, 1], got %v", s)
	}
	switch algo {
	case AlgoOneWay:
		return oneWay(o, g, opt), nil
	case AlgoTwoWay:
		return twoWay(o, g, opt), nil
	}
	if n, ok := strings.CutPrefix(algo, "bridge-"); ok {
		if l, err := strconv.Atoi(n); err == nil && l >= 2 && AlgoBridge(l) == algo {
			return bridged(o, g, opt, l), nil
		}
	}
	return Result{}, fmt.Errorf("mine: unknown algorithm %q", algo)
}
