// Package metrics computes the evaluation measures of §5.3.2:
//
//	recall            = |real accesses explained| / |real log|
//	precision         = |real accesses explained| / |real+fake accesses explained|
//	normalized recall = |real accesses explained| / |real accesses with events|
//
// All three operate on per-row explanation masks over a combined real+fake
// log, so templates are evaluated once and scored many ways.
//
// Masks come in two representations: the element-wise []bool form the
// experiment figures consume, and the packed bitset.Bits form the batch
// auditing engine caches (8x smaller, word-speed combinators). The *Bits
// variants (UnionBits, FractionBits) compute the same
// numbers as their []bool counterparts — both divide identical integer
// counts — so callers can pick the representation without changing results.
package metrics

import "repro/internal/bitset"

// PR bundles precision, recall, and normalized recall for one template or
// template set.
type PR struct {
	Precision        float64
	Recall           float64
	NormalizedRecall float64

	RealExplained int
	FakeExplained int
	RealTotal     int
	RealWithEvent int
}

// Compute scores an explanation mask against row labels. explained, isReal,
// and hasEvent must be aligned with the combined log's rows; hasEvent may be
// nil, in which case normalized recall equals recall.
func Compute(explained, isReal, hasEvent []bool) PR {
	if len(explained) != len(isReal) {
		panic("metrics: mask length mismatch")
	}
	if hasEvent != nil && len(hasEvent) != len(explained) {
		panic("metrics: hasEvent length mismatch")
	}
	var pr PR
	for i, e := range explained {
		if isReal[i] {
			pr.RealTotal++
			if hasEvent == nil || hasEvent[i] {
				pr.RealWithEvent++
			}
			if e {
				pr.RealExplained++
			}
		} else if e {
			pr.FakeExplained++
		}
	}
	if pr.RealTotal > 0 {
		pr.Recall = float64(pr.RealExplained) / float64(pr.RealTotal)
	}
	if pr.RealExplained+pr.FakeExplained > 0 {
		pr.Precision = float64(pr.RealExplained) / float64(pr.RealExplained+pr.FakeExplained)
	}
	if pr.RealWithEvent > 0 {
		pr.NormalizedRecall = float64(pr.RealExplained) / float64(pr.RealWithEvent)
	}
	return pr
}

// Union ORs explanation masks together (the "All" rows of the paper's
// figures evaluate a template set jointly).
func Union(masks ...[]bool) []bool {
	if len(masks) == 0 {
		return nil
	}
	out := make([]bool, len(masks[0]))
	for _, m := range masks {
		if len(m) != len(out) {
			panic("metrics: mask length mismatch in Union")
		}
		for i, v := range m {
			if v {
				out[i] = true
			}
		}
	}
	return out
}

// Fraction returns the fraction of true entries in mask (recall over a
// purely real log).
func Fraction(mask []bool) float64 {
	if len(mask) == 0 {
		return 0
	}
	n := 0
	for _, v := range mask {
		if v {
			n++
		}
	}
	return float64(n) / float64(len(mask))
}

// UnionBits is the packed-mask form of Union: the word-level OR of the
// given masks (nil for none), each zero-extended to the longest length.
func UnionBits(masks ...*bitset.Bits) *bitset.Bits {
	return bitset.Union(masks...)
}

// FractionBits is the packed-mask form of Fraction: the fraction of set
// bits, by popcount. A nil or empty mask yields 0.
func FractionBits(mask *bitset.Bits) float64 {
	if mask == nil || mask.Len() == 0 {
		return 0
	}
	return float64(mask.Count()) / float64(mask.Len())
}
