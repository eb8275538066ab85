// Package mine implements Section 3 of the paper: discovering frequent
// explanation templates from a database instance and its access log. Three
// miners are provided — one-way (Algorithm 1), two-way, and bridged — all
// returning the same template set but with different candidate-generation
// costs, which the mining-performance experiment (Figure 13) compares.
//
// All miners share the optimizations of §3.2.1:
//
//   - support values are cached under a canonicalized selection-condition
//     key, so a path reaching the same condition set by a different
//     traversal order is never re-evaluated;
//   - support queries use DISTINCT per-table projections (implemented inside
//     the query evaluator);
//   - non-selective open paths are passed directly to the next iteration
//     when the optimizer estimate exceeds c times the support threshold,
//     trading estimation error for skipped evaluations without ever
//     discarding a path (explanations are always evaluated exactly).
//
// On top of the paper's optimizations, each level's distinct support
// queries run through a parallel candidate-evaluation stage: prepared plans
// (query.Evaluator.Prepare) evaluated on cloned cursors, Options.Parallelism
// wide, with results — templates and statistics — identical to a sequential
// run.
package mine

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/parallel"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/schemagraph"
)

// Options configures a mining run.
type Options struct {
	// SupportFraction is the paper's s: a template must explain at least
	// this fraction of the log. The absolute threshold is
	// ceil(SupportFraction * |log|), with a minimum of 1.
	SupportFraction float64
	// MaxLength is M, the maximum number of join conditions (bridged
	// mapping-table hops count as part of their edge, not separately).
	MaxLength int
	// MaxTables is T, the maximum number of distinct tables a path may
	// reference (self-join pairs count once; bridge tables count zero).
	MaxTables int

	// CacheSupport enables the canonical-condition support cache.
	CacheSupport bool
	// SkipNonSelective enables the optimizer-estimate skip for open paths.
	SkipNonSelective bool
	// SkipConstant is the paper's c, compensating optimizer error. Only used
	// when SkipNonSelective is set; a typical value is 10.
	SkipConstant float64

	// Parallelism is the worker count of the candidate-evaluation stage: the
	// distinct uncached support queries of each expansion level are
	// evaluated concurrently, each worker on its own evaluator cursor with
	// prepared plans shared through the engine's plan cache. 0 means
	// GOMAXPROCS; 1 evaluates inline on the miner's own cursor. The mined
	// Result — templates and Stats — is identical at every setting; only
	// wall-clock time changes. (When > 1, the evaluator handed to Run counts
	// only the queries its own worker ran; Stats.SupportQueries remains the
	// exact count.)
	Parallelism int
}

// DefaultOptions returns the paper's main mining configuration: s = 1%,
// M = 5, T = 3, all optimizations enabled with c = 10.
func DefaultOptions() Options {
	return Options{
		SupportFraction:  0.01,
		MaxLength:        5,
		MaxTables:        3,
		CacheSupport:     true,
		SkipNonSelective: true,
		SkipConstant:     10,
	}
}

// Stats reports the work a mining run performed. CumulativeTime[L] is the
// total elapsed time after finishing all candidates of length <= L, the
// series plotted in Figure 13.
type Stats struct {
	CandidatesGenerated int
	SupportQueries      int
	CacheHits           int
	Skipped             int
	CumulativeTime      map[int]time.Duration
	TemplatesByLength   map[int]int
}

// Result is the outcome of a mining run: the supported explanation
// templates, all in forward orientation and de-duplicated by canonical
// condition set, sorted by (length, canonical key).
type Result struct {
	Templates []pathmodel.Path
	Stats     Stats
}

// Oracle is the support substrate a mining run consults: the audited log's
// cardinality (the denominator of the support threshold), the optimizer-style
// estimates behind the skip-non-selective optimization, and exact support
// evaluation for batches of candidate paths. The standard implementation
// wraps one query.Evaluator (EvaluatorOracle); a federation implements it by
// evaluating each candidate on every shard and summing the shard-local
// supports, which — because support counts rows and shards partition the
// rows — makes federated mining produce exactly the templates and statistics
// of mining the merged log.
type Oracle interface {
	// AuditedRows returns the number of audited log rows.
	AuditedRows() int
	// EstimateSupport returns a cheap optimizer-style support estimate; see
	// query.Evaluator.EstimateSupport.
	EstimateSupport(p pathmodel.Path) int
	// EvalSupports returns the exact support of each path, evaluated with up
	// to workers concurrent evaluations. Result order matches input order.
	EvalSupports(paths []pathmodel.Path, workers int) []int
}

// evaluatorOracle adapts a single evaluator cursor to the Oracle interface.
// cursors[0] is the wrapped cursor; the rest are the pool's clones, made
// when first needed and kept for the oracle's life, so the evaluation
// scratch each cursor pools is reused from one admitted batch to the next.
type evaluatorOracle struct {
	cursors []*query.Evaluator
}

// EvaluatorOracle wraps a query evaluator as the single-log mining oracle.
func EvaluatorOracle(ev *query.Evaluator) Oracle {
	return &evaluatorOracle{cursors: []*query.Evaluator{ev}}
}

// AuditedRows implements Oracle.
func (o *evaluatorOracle) AuditedRows() int { return o.cursors[0].Log().NumRows() }

// EstimateSupport implements Oracle.
func (o *evaluatorOracle) EstimateSupport(p pathmodel.Path) int {
	return o.cursors[0].EstimateSupport(p)
}

// EvalSupports implements Oracle. Each path is prepared through the engine's
// shared plan cache, so a condition set reached again at a later level (or by
// a sibling worker) never recompiles. Worker w evaluates on cursors[w]: a
// single worker on the wrapped cursor itself, keeping its query counters
// exact.
func (o *evaluatorOracle) EvalSupports(paths []pathmodel.Path, workers int) []int {
	out := make([]int, len(paths))
	if len(paths) == 0 {
		return out
	}
	if workers > len(paths) {
		workers = len(paths)
	}
	for len(o.cursors) < workers {
		o.cursors = append(o.cursors, o.cursors[0].Clone())
	}
	parallel.ForEach(workers, len(paths), nil, func(w, k int) {
		out[k] = o.cursors[w].Prepare(paths[k]).Support()
	})
	return out
}

// miner carries shared state across one run.
type miner struct {
	oracle  Oracle
	graph   *schemagraph.Graph
	opt     Options
	minSupp int

	cache map[string]int // canonical key -> support
	stats Stats

	// explanations found, keyed by canonical key.
	found map[string]pathmodel.Path

	start    time.Time
	lastMark time.Duration
}

func newMiner(o Oracle, g *schemagraph.Graph, opt Options) *miner {
	n := o.AuditedRows()
	minSupp := int(float64(n)*opt.SupportFraction + 0.999999)
	if minSupp < 1 {
		minSupp = 1
	}
	return &miner{
		oracle: o, graph: g, opt: opt, minSupp: minSupp,
		cache: make(map[string]int),
		found: make(map[string]pathmodel.Path),
		stats: Stats{
			CumulativeTime:    make(map[int]time.Duration),
			TemplatesByLength: make(map[int]int),
		},
		start: time.Now(),
	}
}

// workers returns the candidate-evaluation worker count.
func (m *miner) workers() int {
	if m.opt.Parallelism > 0 {
		return m.opt.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// admitBatch runs the admission pipeline over one ordered candidate batch
// (an expansion level, or one bridged assembly round) and returns the
// candidates to keep for the next level:
//
//	keep  — supported (or skipped as non-selective); extend next level
//	found — path is a supported explanation template (recorded internally)
//
// The pipeline has three stages. Structural limits and the optimizer
// estimates run serially in candidate order (both are cheap). Exact support
// then resolves through the canonical-key cache: within the batch, only the
// first occurrence of each uncached key is evaluated — concurrently, via
// prepared plans on cloned cursors — and every other occurrence is a cache
// hit, exactly as it would be sequentially. The final admission decisions
// replay in candidate order, so the kept frontier, the recorded templates,
// and every Stats counter are identical to a sequential run at any
// parallelism.
func (m *miner) admitBatch(cands []pathmodel.Path) []pathmodel.Path {
	const (
		rejected = iota // structural reject or below support
		skipped         // passed through unevaluated, per §3.2.1
		pending         // needs exact support
	)
	state := make([]int, len(cands))
	support := make([]int, len(cands))

	for i, p := range cands {
		m.stats.CandidatesGenerated++
		if p.NumTables() > m.opt.MaxTables || p.Length() > m.opt.MaxLength {
			state[i] = rejected
			continue
		}
		if !p.Closed() && m.opt.SkipNonSelective {
			est := m.oracle.EstimateSupport(p)
			if float64(est) > float64(m.minSupp)*m.opt.SkipConstant {
				m.stats.Skipped++
				state[i] = skipped
				continue // never discarded, per §3.2.1
			}
		}
		state[i] = pending
	}

	m.resolveSupports(cands, state, support, pending)

	var kept []pathmodel.Path
	for i, p := range cands {
		switch state[i] {
		case skipped:
			kept = append(kept, p)
		case pending:
			if support[i] < m.minSupp {
				continue
			}
			if p.Closed() {
				m.recordExplanation(p)
			}
			kept = append(kept, p)
		}
	}
	return kept
}

// resolveSupports fills support[i] for every candidate with state[i] ==
// pending, consulting the canonical-key cache and evaluating the distinct
// uncached queries concurrently.
func (m *miner) resolveSupports(cands []pathmodel.Path, state, support []int, pending int) {
	if !m.opt.CacheSupport {
		// Without the cache every pending candidate is its own query.
		var toEval []int
		for i := range cands {
			if state[i] == pending {
				m.stats.SupportQueries++
				toEval = append(toEval, i)
			}
		}
		results := m.evalSupports(cands, toEval)
		for k, i := range toEval {
			support[i] = results[k]
		}
		return
	}

	// First batch occurrence of an uncached key is the query; later
	// occurrences (and previously cached keys) are hits, matching the
	// sequential interleaving exactly.
	byKey := make(map[string][]int)
	var order []int        // representative candidate per distinct uncached key
	var orderKeys []string // that representative's canonical key, same index
	for i := range cands {
		if state[i] != pending {
			continue
		}
		key := cands[i].CanonicalKey()
		if s, ok := m.cache[key]; ok {
			m.stats.CacheHits++
			support[i] = s
			continue
		}
		if idxs, ok := byKey[key]; ok {
			m.stats.CacheHits++
			byKey[key] = append(idxs, i)
			continue
		}
		m.stats.SupportQueries++
		byKey[key] = []int{i}
		order = append(order, i)
		orderKeys = append(orderKeys, key)
	}
	results := m.evalSupports(cands, order)
	for k, key := range orderKeys {
		s := results[k]
		m.cache[key] = s
		for _, i := range byKey[key] {
			support[i] = s
		}
	}
}

// evalSupports evaluates the exact support of cands[i] for each i in toEval
// through the oracle, in parallel when the batch and the worker budget allow
// it.
func (m *miner) evalSupports(cands []pathmodel.Path, toEval []int) []int {
	if len(toEval) == 0 {
		return nil
	}
	paths := make([]pathmodel.Path, len(toEval))
	for k, i := range toEval {
		paths[k] = cands[i]
	}
	return m.oracle.EvalSupports(paths, m.workers())
}

func (m *miner) recordExplanation(p pathmodel.Path) {
	fwd := p
	if !p.Forward() {
		fwd = p.Reverse()
	}
	key := fwd.CanonicalKey()
	if _, dup := m.found[key]; dup {
		return
	}
	m.found[key] = fwd
	m.stats.TemplatesByLength[fwd.Length()]++
}

// markLength records the cumulative elapsed time after finishing length L.
func (m *miner) markLength(l int) {
	m.lastMark = time.Since(m.start)
	m.stats.CumulativeTime[l] = m.lastMark
}

func (m *miner) result() Result {
	paths := make([]pathmodel.Path, 0, len(m.found))
	keys := make([]string, 0, len(m.found))
	for k := range m.found {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		paths = append(paths, m.found[k])
	}
	sort.SliceStable(paths, func(i, j int) bool { return paths[i].Length() < paths[j].Length() })
	return Result{Templates: paths, Stats: m.stats}
}

// appendEdge extends p with e, additionally enforcing the administrator's
// self-join policy: a table may appear twice on a path only if it has a
// self-join-allowed attribute. Enforcing the policy here (rather than inside
// the structural path model) keeps it identical for forward and backward
// construction, which is what guarantees the miners agree.
func (m *miner) appendEdge(p pathmodel.Path, e schemagraph.Edge) (pathmodel.Path, bool) {
	cand, ok := p.Append(e)
	if !ok {
		return pathmodel.Path{}, false
	}
	if cand.InstancesOfTable(e.To.Table) == 2 && !m.graph.TableHasSelfJoin(e.To.Table) {
		return pathmodel.Path{}, false
	}
	return cand, true
}

// expandLevel extends every open path in frontier by one connected edge and
// returns the next frontier (including skipped non-selective paths) after
// batch admission — the candidate list is generated in deterministic order,
// then admitted through admitBatch's parallel support stage. Frontier
// entries are de-duplicated by exact key.
func (m *miner) expandLevel(frontier []pathmodel.Path) []pathmodel.Path {
	var cands []pathmodel.Path
	seen := make(map[string]bool)
	for _, p := range frontier {
		if p.Closed() {
			continue
		}
		for _, e := range m.graph.EdgesFromTable(p.LastAttr().Table) {
			cand, ok := m.appendEdge(p, e)
			if !ok {
				continue
			}
			if key := cand.Key(); !seen[key] {
				seen[key] = true
				cands = append(cands, cand)
			}
		}
	}
	return m.admitBatch(cands)
}

// initialPaths builds and admits the length-1 paths leaving the given log
// column. Unlike Algorithm 1's pseudo-code, which defers the first support
// check to length 2, the initial paths are support-checked too — the checks
// are cheap (open-path evaluation is log-size bound) and monotonicity makes
// the result identical.
func (m *miner) initialPaths(startCol string) []pathmodel.Path {
	attr := schemagraph.Attr{Table: pathmodel.LogTable, Column: startCol}
	var cands []pathmodel.Path
	for _, e := range m.graph.EdgesFromAttr(attr) {
		p, ok := pathmodel.StartAt(e, startCol)
		if !ok {
			continue
		}
		cands = append(cands, p)
	}
	return m.admitBatch(cands)
}

// oneWay runs Algorithm 1: bottom-up expansion from Log.Patient only.
func oneWay(o Oracle, g *schemagraph.Graph, opt Options) Result {
	m := newMiner(o, g, opt)
	frontier := m.initialPaths(pathmodel.LogPatientColumn)
	m.markLength(1)
	for length := 2; length <= opt.MaxLength; length++ {
		frontier = m.expandLevel(frontier)
		m.markLength(length)
	}
	return m.result()
}

// twoWay expands simultaneously from Log.Patient (rightward) and Log.User
// (leftward). Both directions find the same closed templates (recorded once
// via canonical keys); the point of the exercise is the candidate workload,
// which Figure 13 measures. The backward frontier contributes the suffix
// paths that bridged reuses.
func twoWay(o Oracle, g *schemagraph.Graph, opt Options) Result {
	m := newMiner(o, g, opt)
	fwd := m.initialPaths(pathmodel.LogPatientColumn)
	bwd := m.initialPaths(pathmodel.LogUserColumn)
	m.markLength(1)
	for length := 2; length <= opt.MaxLength; length++ {
		fwd = m.expandLevel(fwd)
		bwd = m.expandLevel(bwd)
		m.markLength(length)
	}
	return m.result()
}
