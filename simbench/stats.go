package main

import (
	"math"
	"slices"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) (the "exclusive"
// default), so spreads printed here match the ones the acceptance check
// computes. v is not modified.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), median(d), q(3)
}

// median of v (v is not modified).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of v, or 0
// for an empty v (the layer was not exercised).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	return d[max(0, min(rank, len(d))-1)]
}

// ratio is a/b, or 0 when b is 0 (nothing to divide by: the layer was not
// exercised on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dist is one metric's per-pass samples.
type dist []float64

// summary is what a run report records per metric: the reported value,
// and the quartiles and count of the samples behind it.
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// summary reports the median.
func (d dist) summary(unit string) summary {
	q1, q2, q3 := quartiles(d)
	return summary{Value: q2, Unit: unit, P25: q1, Median: q2, P75: q3, N: len(d)}
}

// best reports the largest sample: for a rate measured per pass, the pass
// least slowed by other load on the host, which only ever slows a pass
// down.
func (d dist) best(unit string) summary {
	s := d.summary(unit)
	if len(d) > 0 {
		s.Value = slices.Max(d)
	}
	return s
}
