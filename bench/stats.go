package bench

import (
	"math"
	"sort"
)

// Statistics over raw samples. Every number the benchmark reports is
// computed here from the sorted samples themselves — never from histogram
// bucket edges.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of ascending samples by
// linear interpolation between the closest ranks: the exact percentile of
// the sample, not of a bucketed approximation. NaN when s is empty.
func quantile(s []float64, q float64) float64 {
	switch len(s) {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the median of xs (any order).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailPercentiles are the candidates for a timing's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailPercentiles that has at least
// ten samples beyond it, and its value; ok is false when the sample is too
// small for any (fewer than 20 samples).
func tail(s []float64) (pct, value float64, ok bool) {
	n := float64(len(s))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10 {
			return p, quantile(s, p/100), true
		}
	}
	return 0, 0, false
}

// mannWhitney returns the two-sided p-value of the Mann–Whitney U test
// between samples a and b, by the normal approximation with tie and
// continuity corrections (the method benchstat uses for all but tiny
// samples). It returns 1 when either side has fewer than two samples or
// all values tie, so an undecidable comparison never reads as significant.
func mannWhitney(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 < 2 || n2 < 2 {
		return 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks for ties; tieSum accumulates Σ(t³ - t) for the variance.
	var rankA, tieSum float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // ranks are 1-based: (i+1 + j) / 2
		for k := i; k < j; k++ {
			if all[k].fromA {
				rankA += mid
			}
		}
		t := float64(j - i)
		tieSum += t*t*t - t
		i = j
	}
	f1, f2 := float64(n1), float64(n2)
	u := rankA - f1*(f1+1)/2
	mean := f1 * f2 / 2
	n := f1 + f2
	variance := f1 * f2 / 12 * ((n + 1) - tieSum/(n*(n-1)))
	if variance <= 0 {
		return 1
	}
	z := math.Abs(u-mean) - 0.5
	if z < 0 {
		z = 0
	}
	z /= math.Sqrt(variance)
	return math.Erfc(z / math.Sqrt2)
}
