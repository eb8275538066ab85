package experiments

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func TestComputeDefinitions(t *testing.T) {
	// 4 real rows (3 with events), 2 fake rows.
	explained := bitset.FromBools([]bool{true, true, false, false, true, false})
	hasEvent := bitset.FromBools([]bool{true, true, true, false, true, true})

	pr := score(explained, 4, hasEvent)
	if pr.RealTotal != 4 || pr.RealWithEvent != 3 {
		t.Fatalf("totals: %+v", pr)
	}
	if pr.RealExplained != 2 || pr.FakeExplained != 1 {
		t.Fatalf("explained counts: %+v", pr)
	}
	if pr.Recall != 0.5 {
		t.Errorf("Recall = %v, want 0.5", pr.Recall)
	}
	if pr.Precision != 2.0/3 {
		t.Errorf("Precision = %v, want 2/3", pr.Precision)
	}
	if pr.NormalizedRecall != 2.0/3 {
		t.Errorf("NormalizedRecall = %v, want 2/3", pr.NormalizedRecall)
	}
}

func TestComputeNilHasEvent(t *testing.T) {
	pr := score(bitset.FromBools([]bool{true, false}), 2, nil)
	if pr.NormalizedRecall != pr.Recall {
		t.Errorf("nil hasEvent: normalized %v != recall %v", pr.NormalizedRecall, pr.Recall)
	}
}

func TestComputeEmpty(t *testing.T) {
	pr := score(bitset.New(0), 0, nil)
	if pr.Precision != 0 || pr.Recall != 0 || pr.NormalizedRecall != 0 {
		t.Errorf("empty input: %+v", pr)
	}
}

func TestComputePanicsOnLengthMismatch(t *testing.T) {
	assertPanics(t, func() { score(bitset.New(1), 2, nil) })
	assertPanics(t, func() { score(bitset.New(1), 1, bitset.New(0)) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestComputeBoundsProperty: all three measures lie in [0, 1] whenever
// hasEvent dominates explained-real rows; recall <= normalized recall.
func TestComputeBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(50)
		realRows := r.Intn(n + 1)
		explained := bitset.New(n)
		hasEvent := bitset.New(n)
		for i := 0; i < n; i++ {
			e := r.Intn(2) == 0
			if e {
				explained.Set(i)
			}
			// hasEvent true whenever explained, so normalized recall stays
			// within [0,1].
			if e || r.Intn(2) == 0 {
				hasEvent.Set(i)
			}
		}
		pr := score(explained, realRows, hasEvent)
		in01 := func(x float64) bool { return x >= 0 && x <= 1 }
		if !in01(pr.Precision) || !in01(pr.Recall) || !in01(pr.NormalizedRecall) {
			return false
		}
		return pr.NormalizedRecall >= pr.Recall-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFraction(t *testing.T) {
	if got := fraction(bitset.FromBools([]bool{true, false, true, true})); got != 0.75 {
		t.Errorf("fraction = %v", got)
	}
	if got := fraction(nil); got != 0 {
		t.Errorf("fraction(nil) = %v", got)
	}
}
