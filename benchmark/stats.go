package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (the one Python's statistics.quantiles(n=4) uses, so
// the spreads printed here are the ones the acceptance driver computes).
// A single sample is its own three quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / med)
}

// tailLadder is the set of percentiles a tail may be reported at, in
// thousandths of a percent (integers keep "ten samples beyond" exact).
var tailLadder = []int64{50000, 90000, 99000, 99900, 99990, 99999}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it. With fewer than twenty samples no percentile
// qualifies and the maximum is reported instead (percentile 100).
func tailPercentile(n int) float64 {
	p := 100.0
	for _, c := range tailLadder {
		if int64(n)*(100000-c) >= 10*100000 {
			p = float64(c) / 1000
		}
	}
	return p
}

// tailOf returns the tail value of the samples (sorted in place) together
// with the percentile it was taken at.
func tailOf(samples []int64) (value int64, pct float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pct = tailPercentile(len(samples))
	if pct >= 100 {
		return samples[len(samples)-1], 100
	}
	idx := int(math.Ceil(pct/100*float64(len(samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return samples[idx], pct
}

// splitmix64 is the seed-derivation step: every input stream of the
// benchmark (payload bytes, per-pair rmem seeds, crash jitter) is a
// splitmix64 sequence started from the command-line seed and a stream tag,
// so the same seed gives the same inputs on every run and machine.
type splitmix64 uint64

func newStream(seed uint64, tag uint64) *splitmix64 {
	s := splitmix64(seed*0x9E3779B97F4A7C15 + tag*0xD1B54A32D192ED03 + 0x2545F4914F6CDD1D)
	return &s
}

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := s.next()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}
