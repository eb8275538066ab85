package metrics_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/metrics"
)

func TestComputeDefinitions(t *testing.T) {
	// 4 real rows (3 with events), 2 fake rows.
	explained := []bool{true, true, false, false, true, false}
	isReal := []bool{true, true, true, true, false, false}
	hasEvent := []bool{true, true, true, false, true, true}

	pr := metrics.Compute(explained, isReal, hasEvent)
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
	pr := metrics.Compute([]bool{true, false}, []bool{true, true}, nil)
	if pr.NormalizedRecall != pr.Recall {
		t.Errorf("nil hasEvent: normalized %v != recall %v", pr.NormalizedRecall, pr.Recall)
	}
}

func TestComputeEmpty(t *testing.T) {
	pr := metrics.Compute(nil, nil, nil)
	if pr.Precision != 0 || pr.Recall != 0 || pr.NormalizedRecall != 0 {
		t.Errorf("empty input: %+v", pr)
	}
}

func TestComputePanicsOnLengthMismatch(t *testing.T) {
	assertPanics(t, func() { metrics.Compute([]bool{true}, []bool{}, nil) })
	assertPanics(t, func() { metrics.Compute([]bool{true}, []bool{true}, []bool{}) })
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

func TestUnion(t *testing.T) {
	got := metrics.Union([]bool{true, false, false}, []bool{false, false, true})
	want := []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Union[%d] = %v", i, got[i])
		}
	}
	if metrics.Union() != nil {
		t.Error("Union() != nil")
	}
	assertPanics(t, func() { metrics.Union([]bool{true}, []bool{}) })
}

func TestFraction(t *testing.T) {
	if got := metrics.Fraction([]bool{true, false, true, true}); got != 0.75 {
		t.Errorf("Fraction = %v", got)
	}
	if got := metrics.Fraction(nil); got != 0 {
		t.Errorf("Fraction(nil) = %v", got)
	}
}

// TestComputeBoundsProperty: all three measures lie in [0, 1] whenever
// hasEvent dominates explained-real rows; recall <= normalized recall.
func TestComputeBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(50)
		explained := make([]bool, n)
		isReal := make([]bool, n)
		hasEvent := make([]bool, n)
		for i := 0; i < n; i++ {
			explained[i] = r.Intn(2) == 0
			isReal[i] = r.Intn(2) == 0
			// hasEvent true whenever explained, so normalized recall stays
			// within [0,1].
			hasEvent[i] = explained[i] || r.Intn(2) == 0
		}
		pr := metrics.Compute(explained, isReal, hasEvent)
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

// TestBitsVariantsMatchBoolVariants: the packed-mask metrics must compute
// exactly the numbers of their []bool counterparts on random masks — both
// divide the same integer counts, so equality is exact, not approximate.
func TestBitsVariantsMatchBoolVariants(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(200)
		nm := 1 + r.Intn(4)
		bools := make([][]bool, nm)
		packed := make([]*bitset.Bits, nm)
		for i := range bools {
			bools[i] = make([]bool, n)
			for j := range bools[i] {
				bools[i][j] = r.Intn(3) == 0
			}
			packed[i] = bitset.FromBools(bools[i])
		}
		wantUnion := metrics.Union(bools...)
		gotUnion := metrics.UnionBits(packed...)
		for j, w := range wantUnion {
			if gotUnion.Get(j) != w {
				t.Fatalf("trial %d: UnionBits bit %d = %v, want %v", trial, j, gotUnion.Get(j), w)
			}
		}
		if got, want := metrics.FractionBits(gotUnion), metrics.Fraction(wantUnion); got != want {
			t.Fatalf("trial %d: FractionBits = %v, want %v", trial, got, want)
		}
	}
	if metrics.FractionBits(nil) != 0 {
		t.Error("FractionBits(nil) != 0")
	}
}
