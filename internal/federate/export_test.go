package federate

import (
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// TimeBucketReference exposes timeBucketReference to the external tests.
var TimeBucketReference = timeBucketReference

// ShardStates returns every shard's health state, in shard order.
func (f *Federation) ShardStates() []HealthState {
	out := make([]HealthState, len(f.shards))
	for i, sh := range f.shards {
		out[i] = HealthState(sh.health.Load())
	}
	return out
}

// timeBucketReference is the per-row date bucket TimeRanges counts: row r
// falls into one of k equal-width buckets spanning the log's [min, max]
// date range. It is the reference the TimeRanges cut points are pinned to:
// over a chronological log cut i is the first row whose bucket is >= i, and
// over any log the run sizes are the bucket populations.
func timeBucketReference(log *relation.Table, k int) func(row int) int {
	di, ok := log.ColumnIndex(pathmodel.LogDateColumn)
	if !ok || log.NumRows() == 0 || k < 2 {
		return func(int) int { return 0 }
	}
	lo, hi := log.Row(0)[di].AsInt(), log.Row(0)[di].AsInt()
	for r := 1; r < log.NumRows(); r++ {
		if d := log.Row(r)[di].AsInt(); d < lo {
			lo = d
		} else if d > hi {
			hi = d
		}
	}
	// Float space, so spans as wide as the int64 domain cannot overflow;
	// the uint64 subtraction is the true offset for any hi >= lo.
	spanF := float64(uint64(hi)-uint64(lo)) + 1
	return func(row int) int {
		off := uint64(log.Row(row)[di].AsInt()) - uint64(lo)
		b := int(float64(off) / spanF * float64(k))
		if b < 0 {
			b = 0
		}
		if b >= k {
			b = k - 1
		}
		return b
	}
}
