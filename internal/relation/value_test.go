package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(42), KindInt},
		{String("x"), KindString},
		{Date(3), KindDate},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("value %v: kind = %v, want %v", c.v, c.v.Kind, c.kind)
		}
	}
}

func TestValueAsInt(t *testing.T) {
	if got := Int(7).AsInt(); got != 7 {
		t.Errorf("Int(7).AsInt() = %d", got)
	}
	if got := Date(5).AsInt(); got != 5 {
		t.Errorf("Date(5).AsInt() = %d", got)
	}
	if got := String("9").AsInt(); got != 0 {
		t.Errorf("String.AsInt() = %d, want 0", got)
	}
	if got := Null().AsInt(); got != 0 {
		t.Errorf("Null.AsInt() = %d, want 0", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-3), "-3"},
		{String("alice"), "alice"},
		{Date(0), "Sun Jan 03 2010"},
		{Date(6), "Sat Jan 09 2010"},
		// Outside the memoized range, on both sides.
		{Date(-1), "Sat Jan 02 2010"},
		{Date(4000), "Wed Dec 16 2020"},
		{Value{Kind: 9}, "Value(kind=9)"},
	}
	for _, c := range cases {
		// Twice: the second date rendering is served from the memo.
		for pass := 0; pass < 2; pass++ {
			if got := c.v.String(); got != c.want {
				t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
			}
			if got := string(c.v.AppendString([]byte("on "))); got != "on "+c.want {
				t.Errorf("%#v.AppendString = %q, want %q", c.v, got, "on "+c.want)
			}
		}
	}
}

func TestValueLessOrdersByKindThenPayload(t *testing.T) {
	ordered := []Value{Null(), Int(-1), Int(0), Int(5), String("a"), String("b"), Date(0), Date(2)}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Less(ordered[j])
			want := i < j
			if got != want {
				t.Errorf("Less(%v, %v) = %v, want %v", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueCompareConsistentWithLess(t *testing.T) {
	vals := []Value{Null(), Int(1), Int(2), String("a"), Date(1)}
	for _, a := range vals {
		for _, b := range vals {
			c := a.Compare(b)
			switch {
			case a == b && c != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", a, b, c)
			case a.Less(b) && c != -1:
				t.Errorf("Compare(%v,%v) = %d, want -1", a, b, c)
			case b.Less(a) && c != 1:
				t.Errorf("Compare(%v,%v) = %d, want 1", a, b, c)
			}
		}
	}
}

// randomValue generates an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Null()
	case 1:
		return Int(int64(r.Intn(20) - 10))
	case 2:
		return String(string(rune('a' + r.Intn(26))))
	default:
		return Date(r.Intn(7))
	}
}

// valueGen adapts randomValue to testing/quick.
type valueGen struct{ V Value }

// Generate implements quick.Generator.
func (valueGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueGen{V: randomValue(r)})
}

// TestValueLessIsStrictTotalOrder checks irreflexivity, asymmetry, and
// totality of Less by property.
func TestValueLessIsStrictTotalOrder(t *testing.T) {
	prop := func(a, b, c valueGen) bool {
		x, y, z := a.V, b.V, c.V
		if x.Less(x) {
			return false // irreflexive
		}
		if x.Less(y) && y.Less(x) {
			return false // asymmetric
		}
		if x != y && !x.Less(y) && !y.Less(x) {
			return false // total
		}
		if x.Less(y) && y.Less(z) && !x.Less(z) {
			return false // transitive
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestValueIsComparableMapKey ensures Value works as a map key (the engine
// relies on it for all hash joins).
func TestValueIsComparableMapKey(t *testing.T) {
	m := map[Value]int{Int(1): 1, String("1"): 2, Date(1): 3, Null(): 4}
	if len(m) != 4 {
		t.Fatalf("distinct values collided as map keys: %v", m)
	}
	if m[Int(1)] != 1 || m[String("1")] != 2 || m[Date(1)] != 3 || m[Null()] != 4 {
		t.Error("map lookups returned wrong entries")
	}
}
