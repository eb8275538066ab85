package fault

import (
	"testing"
	"time"
)

// TestBackoffBounds is the property test over the delay schedule: for a
// spread of (base, cap, seed) triples, every jittered delay lies within
// [base, cap], and the per-attempt ceiling grows monotonically until it
// saturates at cap.
func TestBackoffBounds(t *testing.T) {
	cases := []struct{ base, cap time.Duration }{
		{time.Millisecond, 250 * time.Millisecond},
		{5 * time.Millisecond, 5 * time.Millisecond},  // cap == base: constant
		{10 * time.Millisecond, 3 * time.Millisecond}, // cap below base clamps
		{time.Nanosecond, time.Hour},                  // 62+ doublings: overflow guard
		{0, 0},                                        // zero value: defaults
	}
	for _, tc := range cases {
		for seed := uint64(0); seed < 5; seed++ {
			b := &Backoff{Base: tc.base, Cap: tc.cap, Seed: seed}
			lo := tc.base
			if lo <= 0 {
				lo = time.Millisecond
			}
			hi := tc.cap
			if hi < lo {
				hi = lo
			}
			for i := 0; i < 200; i++ {
				d := b.Next()
				if d < lo || d > hi {
					t.Fatalf("base=%v cap=%v seed=%d attempt %d: delay %v outside [%v, %v]",
						tc.base, tc.cap, seed, i, d, lo, hi)
				}
			}
		}
	}
}

// TestBackoffDeterministic pins that the jitter sequence is a pure
// function of the seed: same seed, same delays; different seed, different
// delays.
func TestBackoffDeterministic(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		b := &Backoff{Base: time.Millisecond, Cap: time.Second, Seed: seed}
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b2, c := seq(42), seq(42), seq(43)
	differs := false
	for i := range a {
		if a[i] != b2[i] {
			t.Fatalf("seed 42 replay diverged at attempt %d: %v vs %v", i, a[i], b2[i])
		}
		if a[i] != c[i] {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 produced identical 32-delay sequences")
	}
}
