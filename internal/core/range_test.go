package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// randomBounds returns ascending range bounds from 0 to n: a few random cut
// points, mostly not multiples of 64, with a repeated cut and repeated ends
// so empty ranges occur at the front, in the middle and at the back.
func randomBounds(rng *rand.Rand, n int) []int {
	b := []int{0, 0, n, n}
	for i := 0; i < 5; i++ {
		b = append(b, rng.Intn(n+1))
	}
	b = append(b, b[len(b)-1]) // an empty range mid-log
	slices.Sort(b)
	return b
}

// memoCounts reads the engine's instance-memo outcome counters.
func memoCounts(a *core.Auditor) [2]int64 {
	reg := a.Evaluator().Metrics()
	return [2]int64{reg.Counter("query.instances.memo_hits").Value(), reg.Counter("query.instances.memo_misses").Value()}
}

// TestRangeStreamsConcatenate is the range stream's law: over random cut
// points of Tiny seeds 1-3, the NDJSON range streams of the consecutive
// ranges concatenate to exactly the whole-log StreamNDJSON bytes — with one
// pass shared by every range (the shape of a federated call) and with a
// pass per range, at parallelism 1, 2 and 4. At parallelism 1 a shared
// pass walks what the whole-log call walks: its memo hits and misses equal
// the whole-log call's.
func TestRangeStreamsConcatenate(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		a := widenedAuditor(t, seed, false)
		n := a.Log().NumRows()
		bounds := randomBounds(rand.New(rand.NewSource(seed)), n)

		before := memoCounts(a)
		var wantNDJSON []byte
		if err := a.StreamNDJSON(ctx, 1, func(buf []byte, _, _ int) error {
			wantNDJSON = append(wantNDJSON, buf...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		after := memoCounts(a)
		wantMemo := [2]int64{after[0] - before[0], after[1] - before[1]}

		for _, par := range []int{1, 2, 4} {
			for _, shared := range []bool{true, false} {
				label := fmt.Sprintf("seed %d bounds %v j=%d shared pass %v", seed, bounds, par, shared)
				// pass returns the pass for the next range: the shared one, or
				// a fresh one per range.
				var ps *core.Pass
				pass := func() *core.Pass {
					if ps == nil || !shared {
						var err error
						if ps, err = a.NewPass(ctx, par); err != nil {
							t.Fatalf("%s: NewPass: %v", label, err)
						}
					}
					return ps
				}

				before := memoCounts(a)
				var got []byte
				for i := 0; i+1 < len(bounds); i++ {
					if err := a.StreamNDJSONRange(ctx, par, pass(), bounds[i], bounds[i+1], func(buf []byte, _, _ int) error {
						got = append(got, buf...)
						return nil
					}); err != nil {
						t.Fatalf("%s: StreamNDJSONRange: %v", label, err)
					}
				}
				if !bytes.Equal(got, wantNDJSON) {
					t.Fatalf("%s: concatenated NDJSON ranges differ from the whole-log stream", label)
				}
				after := memoCounts(a)
				if memo := [2]int64{after[0] - before[0], after[1] - before[1]}; par == 1 && shared && memo != wantMemo {
					t.Errorf("%s: memo hits/misses %v, want the whole-log call's %v", label, memo, wantMemo)
				}
			}
		}
	}
}

// TestRangeStreamRejectsForeignPassAndBadRange pins the range streams'
// preconditions: a pass made by another auditor, and a range outside the
// rows the pass covers, are errors, not panics or silent misrenders.
func TestRangeStreamRejectsForeignPassAndBadRange(t *testing.T) {
	ctx := context.Background()
	a, b := widenedAuditor(t, 1, false), widenedAuditor(t, 1, false)
	ps, err := b.NewPass(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	emit := func([]byte, int, int) error { return nil }
	if err := a.StreamNDJSONRange(ctx, 1, ps, 0, 1, emit); err == nil {
		t.Error("a foreign pass streamed")
	}
	n := b.Log().NumRows()
	for _, r := range [][2]int{{-1, 1}, {2, 1}, {0, n + 1}} {
		if err := b.StreamNDJSONRange(ctx, 1, ps, r[0], r[1], emit); err == nil {
			t.Errorf("range %v of %d rows streamed", r, n)
		}
	}
}
