package explain_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/query"
)

// rangeEnv builds a tiny hospital (with trained Groups) for one seed and
// returns an evaluator plus the full hand-crafted catalog.
func rangeEnv(t testing.TB, seed int64) (*query.Evaluator, []explain.Template) {
	t.Helper()
	cfg := ehr.Tiny()
	cfg.Seed = seed
	ds := ehr.Generate(cfg)
	g := groups.BuildUserGraph(ds.Log())
	h := groups.BuildHierarchy(g, 8)
	ds.DB.AddTable(h.Table(ehr.TableGroups))
	return query.NewEvaluator(ds.DB), explain.Handcrafted(true, true).All()
}

// randomCuts returns a sorted partition of [lo, hi) as cut points,
// including degenerate empty ranges.
func randomCuts(rng *rand.Rand, lo, hi int) []int {
	cuts := []int{lo, hi}
	for k := rng.Intn(6); k > 0; k-- {
		cuts = append(cuts, lo+rng.Intn(hi-lo+1))
	}
	// Insertion-sort the few cut points.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	return cuts
}

// rangeBools evaluates tpl over the rows [lo, hi) into a fresh mask and
// returns the range's verdicts: element i is row lo+i's.
func rangeBools(tpl explain.Template, ev *query.Evaluator, lo, hi int) []bool {
	m := bitset.New(hi)
	tpl.EvaluateRange(ev, lo, hi, m)
	out := make([]bool, hi-lo)
	for i := range out {
		out[i] = m.Get(lo + i)
	}
	return out
}

// templateMask evaluates tpl over ev's whole audited log into a fresh mask.
func templateMask(ev *query.Evaluator, tpl explain.Template) *bitset.Bits {
	n := ev.Log().NumRows()
	m := bitset.New(n)
	tpl.EvaluateRange(ev, 0, n, m)
	return m
}

// fraction returns the fraction of set bits in m.
func fraction(m *bitset.Bits) float64 { return float64(m.Count()) / float64(m.Len()) }

// patterned returns a mask of size bits whose bits outside [lo, hi) follow
// a random pattern and whose bits inside are clear.
func patterned(rng *rand.Rand, size, lo, hi int) *bitset.Bits {
	m := bitset.New(size)
	for i := range size {
		if (i < lo || i >= hi) && rng.Intn(2) == 0 {
			m.Set(i)
		}
	}
	return m
}

// TestEvaluateRangeStitching is the range-stitching differential and the
// in-place law: for every catalog template across three dataset seeds,
// evaluating the pieces of a partition of a range [lo, hi) — the whole log
// split in halves, random partitions of the whole log and of a random
// range — into one mask must set exactly Evaluate's bits of [lo, hi) and
// leave every other bit of the mask, which starts patterned and runs past
// the log, as it was. This is the contract the batch engine's
// intra-template mask sharding relies on.
func TestEvaluateRangeStitching(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ev, templates := rangeEnv(t, seed)
			n := ev.Log().NumRows()
			rng := rand.New(rand.NewSource(seed * 97))
			for _, tpl := range templates {
				full := tpl.Evaluate(ev)
				if len(full) != n {
					t.Fatalf("%s: Evaluate returned %d rows, want %d", tpl.Name(), len(full), n)
				}
				partitions := [][]int{{0, n / 2, n}}
				for k := 0; k < 3; k++ {
					partitions = append(partitions, randomCuts(rng, 0, n))
				}
				lo := rng.Intn(n + 1)
				partitions = append(partitions, randomCuts(rng, lo, lo+rng.Intn(n-lo+1)))
				for _, cuts := range partitions {
					lo, hi := cuts[0], cuts[len(cuts)-1]
					dst := patterned(rng, n+100, lo, hi)
					before := dst.Clone()
					for i := 0; i+1 < len(cuts); i++ {
						tpl.EvaluateRange(ev, cuts[i], cuts[i+1], dst)
					}
					for r := range dst.Len() {
						want := before.Get(r)
						if r >= lo && r < hi {
							want = full[r]
						}
						if dst.Get(r) != want {
							t.Fatalf("%s: partition %v sets bit %d to %v, want %v", tpl.Name(), cuts, r, dst.Get(r), want)
						}
					}
				}
			}
		})
	}
}

// TestEvaluateRangeConcurrentShards assembles every catalog template's mask
// from concurrent shards — one goroutine per shard, each on its own cloned
// cursor, sharing prepared plans through the engine cache, all writing one
// mask — and compares the result with the sequential Evaluate. The
// boundaries between shards are multiples of 64, as the Template contract
// requires of writers sharing a mask, and the last shard ends mid-word. Run
// under -race in CI, this is the concurrency half of the range-stitching
// differential.
func TestEvaluateRangeConcurrentShards(t *testing.T) {
	ev, templates := rangeEnv(t, 1)
	n := ev.Log().NumRows()
	const shards = 7 // deliberately not a divisor of typical log sizes
	if n%64 == 0 || n/shards < 64 {
		t.Fatalf("%d log rows: want a ragged last word and shards of at least one word", n)
	}

	for _, tpl := range templates {
		want := tpl.Evaluate(ev)
		got := bitset.New(n)
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			lo, hi := s*n/shards&^63, (s+1)*n/shards&^63
			if s == shards-1 {
				hi = n
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				tpl.EvaluateRange(ev.Clone(), lo, hi, got)
			}()
		}
		wg.Wait()
		for r := range want {
			if got.Get(r) != want[r] {
				t.Fatalf("%s: concurrent shards differ from Evaluate at row %d", tpl.Name(), r)
			}
		}
	}
}
