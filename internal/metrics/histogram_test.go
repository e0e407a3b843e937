package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randomValues draws n values spanning below, inside, and above the
// bucket range, from a fixed-seed source so failures reproduce.
func randomValues(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*140 - 20 // [-20, 120) around bounds [0, 100]
	}
	return out
}

func testBounds() []float64 { return LinearBounds(10, 10, 10) } // 10..100

// TestBucketCountsSumToCount: property 1 — for any observation stream,
// per-bucket counts (overflow included) sum to the observation count.
func TestBucketCountsSumToCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		h := NewHistogram(testBounds())
		vals := randomValues(rng, 1+rng.Intn(400))
		for _, v := range vals {
			h.Observe(v)
		}
		var sum uint64
		for _, c := range h.Counts() {
			sum += c
		}
		if sum != h.Count() || sum != uint64(len(vals)) {
			t.Fatalf("trial %d: bucket sum %d, Count %d, observed %d", trial, sum, h.Count(), len(vals))
		}
	}
}

// TestQuantileMonotone: property 2 — Quantile is nondecreasing in q and
// clamped to the observed extrema.
func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		h := NewHistogram(testBounds())
		for _, v := range randomValues(rng, 1+rng.Intn(300)) {
			h.Observe(v)
		}
		prev := h.Quantile(0)
		if prev != h.Min() {
			t.Fatalf("Quantile(0) = %v, want Min %v", prev, h.Min())
		}
		for q := 0.01; q <= 1.0; q += 0.01 {
			cur := h.Quantile(q)
			if cur < prev {
				t.Fatalf("trial %d: Quantile(%v) = %v < Quantile(prev) = %v", trial, q, cur, prev)
			}
			if cur < h.Min() || cur > h.Max() {
				t.Fatalf("trial %d: Quantile(%v) = %v outside [%v, %v]", trial, q, cur, h.Min(), h.Max())
			}
			prev = cur
		}
		if got := h.Quantile(1); got != h.Max() {
			t.Fatalf("Quantile(1) = %v, want Max %v", got, h.Max())
		}
	}
}

// TestMergeEqualsConcatenation: property 3 — merging two histograms is
// exactly the histogram of the concatenated streams.
func TestMergeEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a := NewHistogram(testBounds())
		b := NewHistogram(testBounds())
		both := NewHistogram(testBounds())
		va := randomValues(rng, rng.Intn(200))
		vb := randomValues(rng, rng.Intn(200))
		for _, v := range va {
			a.Observe(v)
			both.Observe(v)
		}
		for _, v := range vb {
			b.Observe(v)
			both.Observe(v)
		}
		a.Merge(b)
		// Sum is a float accumulation: merging adds two partial sums,
		// so it may differ from the sequential sum in the last ulp.
		sumDiff := math.Abs(a.Sum() - both.Sum())
		if a.Count() != both.Count() || sumDiff > 1e-9*math.Abs(both.Sum()) ||
			a.Min() != both.Min() || a.Max() != both.Max() {
			t.Fatalf("trial %d: merged aggregate differs: count %d/%d sum %v/%v min %v/%v max %v/%v",
				trial, a.Count(), both.Count(), a.Sum(), both.Sum(), a.Min(), both.Min(), a.Max(), both.Max())
		}
		ac, bc := a.Counts(), both.Counts()
		for i := range ac {
			if ac[i] != bc[i] {
				t.Fatalf("trial %d: bucket %d: merged %d, concat %d", trial, i, ac[i], bc[i])
			}
		}
	}
}

func TestMergeEmptyIntoEmpty(t *testing.T) {
	a, b := NewHistogram(testBounds()), NewHistogram(testBounds())
	a.Merge(b)
	if a.Count() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatalf("empty merge changed state: %+v", a)
	}
}

func TestMergeMismatchedBoundsPanics(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	mustPanic(t, "different bucket layouts", func() { a.Merge(NewHistogram([]float64{1, 2, 3})) })
	mustPanic(t, "different bucket bounds", func() { a.Merge(NewHistogram([]float64{1, 3})) })
}

func TestObserveBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.Observe(10) // Prometheus semantics: v ≤ bound → first bucket
	h.Observe(10.5)
	h.Observe(20)
	h.Observe(21) // overflow
	c := h.Counts()
	if c[0] != 1 || c[1] != 2 || c[2] != 1 {
		t.Fatalf("edge placement wrong: %v", c)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram(testBounds())
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("single-observation Quantile(%v) = %v, want 42", q, got)
		}
	}
	if h.Mean() != 42 {
		t.Fatalf("Mean = %v, want 42", h.Mean())
	}
}

func TestNewHistogramValidation(t *testing.T) {
	mustPanic(t, "at least one", func() { NewHistogram(nil) })
	mustPanic(t, "not strictly increasing", func() { NewHistogram([]float64{1, 1}) })
	mustPanic(t, "non-finite", func() { NewHistogram([]float64{1, 2, math.Inf(1)}) })
}

func TestBoundsHelpers(t *testing.T) {
	lin := LinearBounds(5, 5, 4)
	for i, want := range []float64{5, 10, 15, 20} {
		if lin[i] != want {
			t.Fatalf("LinearBounds[%d] = %v, want %v", i, lin[i], want)
		}
	}
	exp := ExponentialBounds(1, 2, 5)
	for i, want := range []float64{1, 2, 4, 8, 16} {
		if exp[i] != want {
			t.Fatalf("ExponentialBounds[%d] = %v, want %v", i, exp[i], want)
		}
	}
	mustPanic(t, "LinearBounds", func() { LinearBounds(0, 0, 3) })
	mustPanic(t, "ExponentialBounds", func() { ExponentialBounds(1, 1, 3) })
}

// bucketLayouts are the bound shapes bucket must handle: the linear
// layouts the queue-depth histograms use (integer and fractional widths,
// where the guess meets rounding), exponential ones, a single bound, and
// irregular spacing.
func bucketLayouts(rng *rand.Rand) map[string][]float64 {
	irregular := make([]float64, 0, 40)
	for x := rng.NormFloat64() * 100; len(irregular) < cap(irregular); x += rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-3)) {
		irregular = append(irregular, x)
	}
	return map[string][]float64{
		"linear":             LinearBounds(10, 10, 64),
		"linear-fractional":  LinearBounds(0.1, 0.1, 50),
		"linear-negative":    LinearBounds(-7.25, 0.3, 17),
		"exponential":        ExponentialBounds(10e-6, 1.5, 36),
		"exponential-narrow": ExponentialBounds(1, 1.01, 200),
		"single":             {5},
		"pair":               {-1, 1e9},
		"irregular-fixed":    {-3, -1, 0, 0.5, 2, 100, 101, 1e6},
		"irregular-random":   irregular,
	}
}

// bucketProbes returns values exactly on every bound, one ulp either side
// of it, below the first and above the last bound, ±Inf, NaN, ±0 and
// random values across the range.
func bucketProbes(rng *rand.Rand, bounds []float64) []float64 {
	lo, hi := bounds[0], bounds[len(bounds)-1]
	probes := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1),
		lo - 1, hi + 1, -math.MaxFloat64, math.MaxFloat64}
	for _, b := range bounds {
		probes = append(probes, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
	}
	span := hi - lo + 1
	for i := 0; i < 200; i++ {
		probes = append(probes, lo-span/4+rng.Float64()*span*1.5)
	}
	return probes
}

// TestBucketMatchesSearchFloat64s: property — the guessed-and-corrected
// bucket lookup returns sort.SearchFloat64s's index for every input.
func TestBucketMatchesSearchFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		for name, bounds := range bucketLayouts(rng) {
			h := NewHistogram(bounds)
			for _, v := range bucketProbes(rng, bounds) {
				if got, want := h.bucket(v), sort.SearchFloat64s(bounds, v); got != want {
					t.Fatalf("%s: bucket(%v) = %d, want %d", name, v, got, want)
				}
			}
		}
	}
}

// FuzzBucketMatchesSearchFloat64s extends the property to arbitrary
// values and bound layouts drawn from a seed.
func FuzzBucketMatchesSearchFloat64s(f *testing.F) {
	f.Add(int64(1), 35.0)
	f.Add(int64(2), math.NaN())
	f.Add(int64(3), math.Inf(-1))
	f.Add(int64(4), 1e-300)
	f.Fuzz(func(t *testing.T, seed int64, v float64) {
		for name, bounds := range bucketLayouts(rand.New(rand.NewSource(seed))) {
			if got, want := NewHistogram(bounds).bucket(v), sort.SearchFloat64s(bounds, v); got != want {
				t.Fatalf("%s: bucket(%v) = %d, want %d", name, v, got, want)
			}
		}
	})
}
