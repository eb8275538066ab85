package federate

import (
	"repro/internal/mine"
	"repro/internal/pathmodel"
	"repro/internal/query"
)

// joinOracle implements mine.Oracle over a Join: the audited-row
// denominator and the optimizer estimates come from a coordinator view of
// the merged log, and exact supports are evaluated per shard and summed.
type joinOracle struct {
	rows int
	// estim is the merged log bound to shard 0's database (whose Log table
	// a Join sets to the merged log).
	estim *query.Evaluator
	// shards holds one single-log oracle per shard engine: a Join shard's
	// run is its engine's whole audited log.
	shards []mine.Oracle
}

// joinOracle returns the Join's cross-shard mining oracle. It must not be
// used concurrently with other operations on the federation.
func (f *Federation) joinOracle() mine.Oracle {
	o := &joinOracle{rows: f.merged.NumRows(), estim: query.NewEvaluator(f.shards[0].auditor.Database())}
	for _, a := range f.engines {
		o.shards = append(o.shards, mine.EvaluatorOracle(a.Evaluator()))
	}
	return o
}

// AuditedRows implements mine.Oracle: the merged log's cardinality, the
// denominator of the support threshold.
func (o *joinOracle) AuditedRows() int { return o.rows }

// EstimateSupport implements mine.Oracle on the coordinator view.
// Estimates drive only the skip-non-selective decision; when the shards
// agree on metadata the coordinator view makes the federated decisions
// identical to a single-engine run. Supports, by contrast, are always
// evaluated exactly, per shard.
func (o *joinOracle) EstimateSupport(p pathmodel.Path) int {
	return o.estim.EstimateSupport(p)
}

// EvalSupports implements mine.Oracle: every shard engine evaluates the
// batch over its own rows with the whole worker budget, and a path's shard
// supports are summed. Shards partition the audited rows, so the sum
// equals the merged-log support exactly.
func (o *joinOracle) EvalSupports(paths []pathmodel.Path, workers int) []int {
	out := make([]int, len(paths))
	for _, so := range o.shards {
		for i, n := range so.EvalSupports(paths, workers) {
			out[i] += n
		}
	}
	return out
}
