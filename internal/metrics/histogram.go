package metrics

import (
	"fmt"
	"math"
)

// Histogram counts observations into fixed buckets chosen at
// registration time. Buckets are defined by finite, strictly increasing
// upper bounds with Prometheus semantics — bucket i counts observations
// v ≤ bounds[i] that exceeded every earlier bound — plus one implicit
// overflow bucket above the last bound. Observe finds the bucket in O(1)
// for linear bounds (see bucket) and increments one slot: no allocation,
// no floating accumulation beyond the running sum.
type Histogram struct {
	bounds []float64 // finite, strictly increasing upper bounds
	counts []uint64  // len(bounds)+1; last slot is the overflow bucket
	// scale maps v − bounds[0] to a bucket guess: (n−1)/(bounds[n−1] −
	// bounds[0]), or 0 for a single bound.
	scale float64
	count uint64
	sum   float64
	min   float64
	max   float64
}

// NewHistogram creates a histogram over the given upper bounds. The
// bounds must be finite and strictly increasing; violating that is a
// configuration error and panics. Use Registry.Histogram to register it
// for snapshots.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: non-finite histogram bound %v", b))
		}
		if i > 0 && b <= own[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not strictly increasing at %v", b))
		}
	}
	h := &Histogram{bounds: own, counts: make([]uint64, len(own)+1)}
	if n := len(own); n > 1 {
		h.scale = float64(n-1) / (own[n-1] - own[0])
	}
	return h
}

// Observe records one value.
//
//dtlint:hotpath
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// bucket returns the index of the first bound ≥ v, or len(bounds) for
// the overflow bucket (NaN included) — exactly sort.SearchFloat64s. It
// guesses the index as if the bounds were evenly spaced, then corrects
// the guess against the stored bounds: exact for any bounds, and one or
// two steps for the linear bounds every per-packet queue-depth histogram
// uses, where a binary search would take log₂ n.
//
//dtlint:hotpath
func (h *Histogram) bucket(v float64) int {
	b := h.bounds
	n := len(b)
	i := 0
	if g := (v - b[0]) * h.scale; g >= float64(n) || g != g {
		i = n // above the last bound, or NaN
	} else if g > 0 {
		i = int(g)
	}
	for i < n && !(b[i] >= v) {
		i++
	}
	for i > 0 && b[i-1] >= v {
		i--
	}
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Min and Max return the observed extrema (zero before any observation).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observed value.
func (h *Histogram) Max() float64 { return h.max }

// Mean returns the average observation, or zero before any observation.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// Counts returns a copy of the per-bucket counts, overflow bucket last.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Quantile estimates the q-quantile (q in [0, 1]) from the buckets by
// linear interpolation inside the bucket holding the target rank. The
// estimate is exact at the observed extrema — q ≤ 0 returns Min, q ≥ 1
// returns Max — clamped to [Min, Max] everywhere, and monotone
// nondecreasing in q. Returns zero before any observation.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		// Bucket i holds the target rank. Interpolate between its
		// edges, using the observed extrema for the outermost edges.
		lower := h.min
		if i > 0 {
			lower = h.bounds[i-1]
		}
		upper := h.max
		if i < len(h.bounds) && h.bounds[i] < upper {
			upper = h.bounds[i]
		}
		if lower < h.min {
			lower = h.min
		}
		if upper < lower {
			upper = lower
		}
		frac := (rank - float64(lo)) / float64(c)
		v := lower + (upper-lower)*frac
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// Merge folds other into h. Both histograms must share identical bucket
// bounds; merging mismatched layouts is a programming error and panics.
// After the merge, h is exactly the histogram of the two concatenated
// observation streams.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.bounds) != len(other.bounds) {
		panic("metrics: merging histograms with different bucket layouts")
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			panic("metrics: merging histograms with different bucket bounds")
		}
	}
	if other.count == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// LinearBounds returns n strictly increasing upper bounds start,
// start+width, ..., start+(n-1)·width — the natural layout for a
// queue-depth histogram over a known buffer size.
func LinearBounds(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		panic("metrics: LinearBounds needs n > 0 and width > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBounds returns n upper bounds start, start·factor,
// start·factor², ... for quantities spanning orders of magnitude.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("metrics: ExponentialBounds needs n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}
