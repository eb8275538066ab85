package bitset

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// Bools unpacks the bitset into a []bool mask, the reference form the
// property tests compare against.
func (b *Bits) Bools() []bool {
	out := make([]bool, b.n)
	for i := range out {
		out[i] = b.Get(i)
	}
	return out
}

// boolRef is the []bool reference model the property test checks Bits
// against: every operation is defined element-wise with zero-extension for
// ragged lengths, exactly the semantics the packed implementation promises.
type boolRef []bool

func (r boolRef) or(o boolRef) boolRef {
	n := len(r)
	if len(o) > n {
		n = len(o)
	}
	out := make(boolRef, n)
	for i := range out {
		out[i] = (i < len(r) && r[i]) || (i < len(o) && o[i])
	}
	return out
}

func (r boolRef) count() int {
	n := 0
	for _, v := range r {
		if v {
			n++
		}
	}
	return n
}

func randBools(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(3) == 0
	}
	return out
}

func checkEqual(t *testing.T, op string, b *Bits, ref boolRef) {
	t.Helper()
	if b.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", op, b.Len(), len(ref))
	}
	for i, want := range ref {
		if got := b.Get(i); got != want {
			t.Fatalf("%s: bit %d = %v, want %v", op, i, got, want)
		}
	}
	if got, want := b.Count(), ref.count(); got != want {
		t.Fatalf("%s: Count = %d, want %d", op, got, want)
	}
	round := FromBools(b.Bools())
	for i := range ref {
		if round.Get(i) != ref[i] {
			t.Fatalf("%s: Bools/FromBools round-trip broke bit %d", op, i)
		}
	}
}

// TestBitsProperty drives random sequences of Or, Grow and Set — including
// ragged operand lengths spanning word boundaries — against the []bool
// reference model.
func TestBitsProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		ref := boolRef(randBools(rng, n))
		b := FromBools(ref)
		checkEqual(t, "init", b, ref)

		for step := 0; step < 200; step++ {
			// Operand lengths are deliberately ragged: shorter, equal, and
			// longer than the current bitset, crossing word boundaries.
			m := rng.Intn(300)
			other := boolRef(randBools(rng, m))
			switch rng.Intn(3) {
			case 0:
				b.Or(FromBools(other))
				ref = ref.or(other)
				checkEqual(t, "Or", b, ref)
			case 1:
				grown := len(ref) + rng.Intn(130)
				b.Grow(grown)
				for len(ref) < grown {
					ref = append(ref, false)
				}
				checkEqual(t, "Grow", b, ref)
			case 2:
				if len(ref) > 0 {
					i := rng.Intn(len(ref))
					b.Set(i)
					ref[i] = true
					checkEqual(t, "Set", b, ref)
				}
			}
		}
	}
}

// TestUnion pins the variadic union against the reference fold, including
// the empty and ragged cases.
func TestUnion(t *testing.T) {
	if Union() != nil {
		t.Error("Union() of nothing should be nil")
	}
	rng := rand.New(rand.NewSource(7))
	refs := []boolRef{randBools(rng, 10), randBools(rng, 130), randBools(rng, 64)}
	masks := make([]*Bits, len(refs))
	want := boolRef{}
	for i, r := range refs {
		masks[i] = FromBools(r)
		want = want.or(r)
	}
	checkEqual(t, "Union", Union(masks...), want)
	// Union must not mutate its operands.
	for i, r := range refs {
		checkEqual(t, "Union operand", masks[i], r)
	}
}

// TestGrowSharesPrefix verifies copy-on-extend economics: growing within
// spare capacity does not reallocate, and the grown tail reads as zero.
func TestGrowSharesPrefix(t *testing.T) {
	b := New(100)
	b.Set(99)
	b.Grow(101)
	if !b.Get(99) || b.Get(100) {
		t.Error("Grow corrupted the boundary word")
	}
	if b.Count() != 1 {
		t.Errorf("Count after Grow = %d, want 1", b.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Get":              func() { New(10).Get(10) },
		"Set":              func() { New(10).Set(-1) },
		"Set past the end": func() { New(10).Set(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSerializeRoundTrip pins the WriteTo/ReadFrom format: arbitrary
// bitsets — including ragged lengths with nonzero tails and the empty set —
// must restore exactly, and the byte count both sides report must match the
// stream length.
func TestSerializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(300)
		b := New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				b.Set(i)
			}
		}
		var buf bytes.Buffer
		wrote, err := b.WriteTo(&buf)
		if err != nil {
			t.Fatalf("n=%d: WriteTo: %v", n, err)
		}
		if wrote != int64(buf.Len()) {
			t.Fatalf("n=%d: WriteTo reported %d bytes, wrote %d", n, wrote, buf.Len())
		}
		got := New(0)
		read, err := got.ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: ReadFrom: %v", n, err)
		}
		if read != wrote {
			t.Fatalf("n=%d: ReadFrom consumed %d bytes, want %d", n, read, wrote)
		}
		if got.Len() != b.Len() || got.Count() != b.Count() {
			t.Fatalf("n=%d: len/count = %d/%d, want %d/%d", n, got.Len(), got.Count(), b.Len(), b.Count())
		}
		for i := 0; i < n; i++ {
			if got.Get(i) != b.Get(i) {
				t.Fatalf("n=%d: bit %d = %v, want %v", n, i, got.Get(i), b.Get(i))
			}
		}
	}
}

// TestSerializeRejectsCorruption: truncated streams, an absurd declared
// length, and tail bits set beyond the declared length must all be errors —
// a warm-start loader must never trust a damaged mask.
func TestSerializeRejectsCorruption(t *testing.T) {
	b := New(100)
	b.Set(3)
	b.Set(99)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for cut := 0; cut < len(full); cut++ {
		if _, err := New(0).ReadFrom(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation to %d bytes: ReadFrom succeeded", cut)
		}
	}

	huge := binary.AppendUvarint(nil, 1<<40)
	if _, err := New(0).ReadFrom(bytes.NewReader(huge)); err == nil {
		t.Error("absurd declared length: ReadFrom succeeded")
	}

	// Declared length 100 needs 2 words; setting a bit in word 1 beyond bit
	// 100-64=36 violates the tail-zero invariant.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] |= 0x80 // bit 127
	if _, err := New(0).ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Error("tail bits beyond declared length: ReadFrom succeeded")
	}
}
