package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of vs by linear
// interpolation between closest ranks, the same rule as NumPy's default;
// percentile(vs, 50) is the median. It returns NaN for an empty sample.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 50) }

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// quartiles is the summary written beside every sample list in result.json.
type quartiles struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	Q1  float64 `json:"q1"`
	Med float64 `json:"median"`
	Q3  float64 `json:"q3"`
	Max float64 `json:"max"`
}

func summarize(vs []float64) quartiles {
	if len(vs) == 0 {
		return quartiles{}
	}
	return quartiles{
		N:   len(vs),
		Min: percentile(vs, 0),
		Q1:  percentile(vs, 25),
		Med: percentile(vs, 50),
		Q3:  percentile(vs, 75),
		Max: percentile(vs, 100),
	}
}
