package main

import (
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTailBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const minTailBeyond = 10

// maxTailPct caps the tail percentile. On a large sample the rule alone
// would climb to p99.99, whose ten samples beyond are single scheduler or
// GC stalls that differ from run to run; p99 of the same sample repeats.
const maxTailPct = 99

// tail is the highest percentile of a latency sample, up to maxTailPct,
// that still has at least minTailBeyond samples strictly above it.
type tail struct {
	// Value is the sample at the percentile.
	Value float64 `json:"value"`
	// Pct is the percentile, 100 × (samples at or below Value) / N.
	Pct float64 `json:"pct"`
	// N is the sample count and Beyond the number of samples above Value.
	N      int `json:"n"`
	Beyond int `json:"beyond"`
}

// tailOf applies the tail rule to xs. With too few samples for the rule
// (N ≤ minTailBeyond) it falls back to the maximum, with Beyond 0, so the
// caller can see the rule did not hold.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= minTailBeyond {
		return tail{Value: s[n-1], Pct: 100, N: n}
	}
	i := min(n-1-minTailBeyond, (n*maxTailPct+99)/100-1)
	// Samples tied with s[i] are not beyond it; step down past the ties.
	for i > 0 && s[i+1] == s[i] {
		i--
	}
	beyond := 0
	for _, v := range s[i+1:] {
		if v > s[i] {
			beyond++
		}
	}
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), N: n, Beyond: beyond}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
