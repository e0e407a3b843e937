package stats

import (
	"math"
	"math/rand"
	"testing"
)

// perturbedSine builds a queue-like trace: a noisy sine around level
// until faultStart, a backlog spike decaying from faultEnd, and the sine
// resuming once the backlog is gone.
func perturbedSine(period, level, faultStart, faultEnd, spike, decay float64, rng *rand.Rand) *Series {
	s := NewSeries("perturbed")
	for t := 0.0; t < faultStart+1.0; t += 0.001 {
		base := level + math.Sin(2*math.Pi*t/period)
		switch {
		case t < faultStart:
			s.Add(t, base+0.1*(rng.Float64()-0.5))
		case t < faultEnd:
			s.Add(t, spike) // queue pinned high during the outage
		default:
			// Exponential drain back to the oscillating baseline.
			residue := spike * math.Exp(-(t-faultEnd)/decay)
			s.Add(t, base+residue+0.1*(rng.Float64()-0.5))
		}
	}
	return s
}

func TestMeasureRecoveryDrainAndRelock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const (
		period     = 0.05
		level      = 5.0
		faultStart = 1.0
		faultEnd   = 1.2
	)
	s := perturbedSine(period, level, faultStart, faultEnd, 40, 0.05, rng)
	r := MeasureRecovery(s, faultStart, faultEnd)
	if math.Abs(r.RefMean-level) > 0.2 {
		t.Fatalf("RefMean = %v, want ≈ %v", r.RefMean, level)
	}
	if math.Abs(r.RefPeriod-period) > 0.005 {
		t.Fatalf("RefPeriod = %v, want ≈ %v", r.RefPeriod, period)
	}
	if !r.Drained {
		t.Fatal("spiked trace reported as never draining")
	}
	// The spike decays to the band edge in a few time constants.
	if r.DrainTime <= 0 || r.DrainTime > 0.5 {
		t.Fatalf("DrainTime = %v, want (0, 0.5]", r.DrainTime)
	}
	if !r.Relocked {
		t.Fatal("resumed sine never re-locked")
	}
	if r.RelockTime <= 0 || r.RelockTime > 0.8 {
		t.Fatalf("RelockTime = %v, want (0, 0.8]", r.RelockTime)
	}
}

func TestMeasureRecoveryNeverDrains(t *testing.T) {
	s := NewSeries("stuck")
	for t := 0.0; t < 2.0; t += 0.001 {
		if t < 1.0 {
			s.Add(t, 5+math.Sin(2*math.Pi*t/0.05))
		} else {
			s.Add(t, 100) // pinned after the fault, forever
		}
	}
	r := MeasureRecovery(s, 1.0, 1.1)
	if r.Drained {
		t.Fatalf("pinned trace reported drained after %v", r.DrainTime)
	}
	if r.Relocked {
		t.Fatal("constant post-fault trace reported a periodic lock")
	}
}

func TestMeasureRecoveryUnperturbed(t *testing.T) {
	// A trace that never leaves the band drains immediately at the first
	// post-fault sample.
	s := NewSeries("calm")
	for t := 0.0; t < 2.0; t += 0.001 {
		s.Add(t, 5+math.Sin(2*math.Pi*t/0.05))
	}
	r := MeasureRecovery(s, 1.0, 1.1)
	if !r.Drained || r.DrainTime > 0.01 {
		t.Fatalf("calm trace: Drained=%v DrainTime=%v, want immediate", r.Drained, r.DrainTime)
	}
	if !r.Relocked {
		t.Fatal("calm periodic trace did not re-lock")
	}
}

func TestMeasureRecoveryDegenerate(t *testing.T) {
	if r := MeasureRecovery(nil, 0, 1); r.Drained || r.Relocked {
		t.Fatal("nil series produced recovery claims")
	}
	s := NewSeries("x")
	s.Add(0, 1)
	if r := MeasureRecovery(s, 2, 1); r.Drained {
		t.Fatal("inverted fault window produced recovery claims")
	}
	// All samples inside the fault window: no reference, no post-fault.
	w := NewSeries("win")
	for t := 1.0; t < 1.1; t += 0.001 {
		w.Add(t, 3)
	}
	r := MeasureRecovery(w, 0.5, 2)
	if r.Drained || r.Relocked || r.RefMean != 0 {
		t.Fatalf("windowed-out series produced %+v", r)
	}
}

// TestEstimatePeriodShortSeries pins the <16-point early-out boundary.
func TestEstimatePeriodShortSeries(t *testing.T) {
	s := NewSeries("short")
	for i := 0; i < 15; i++ {
		s.Add(float64(i), math.Sin(float64(i)))
	}
	if p, conf := EstimatePeriod(s); p != 0 || conf != 0 {
		t.Fatalf("15-point series gave period=%v conf=%v, want 0,0", p, conf)
	}
	// One more point crosses the threshold and the estimator must at
	// least run without claiming strong confidence in 16 samples.
	s.Add(15, math.Sin(15))
	if _, conf := EstimatePeriod(s); conf < 0 || conf > 1 {
		t.Fatalf("confidence %v out of range", conf)
	}
}

// TestEstimatePeriodPostPerturbationRelock exercises the estimator the
// way MeasureRecovery uses it: windows that straddle the perturbation
// find nothing, windows past it find the original period again.
func TestEstimatePeriodPostPerturbationRelock(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const period = 0.04
	s := perturbedSine(period, 5, 1.0, 1.15, 60, 0.03, rng)

	window := func(lo, hi float64) *Series {
		w := NewSeries("w")
		for i := 0; i < s.Len(); i++ {
			if p := s.At(i); p.T >= lo && p.T < hi {
				w.Add(p.T, p.V)
			}
		}
		return w
	}
	// Far past the perturbation the lock is back at the right period.
	p2, c2 := EstimatePeriod(window(1.5, 1.9))
	if math.Abs(p2-period) > 0.006 {
		t.Fatalf("post-perturbation window: period %v, want ≈ %v (conf %v)", p2, period, c2)
	}
	// A window dominated by the monotone drain must not report the
	// baseline period with comparable confidence.
	p1, c1 := EstimatePeriod(window(1.15, 1.3))
	if math.Abs(p1-period) < 0.004 && c1 >= c2 {
		t.Fatalf("drain window locked onto %v (conf %v ≥ %v); windows cannot discriminate recovery", p1, c1, c2)
	}
}
