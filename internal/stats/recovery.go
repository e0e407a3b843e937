package stats

// Recovery quantifies how a queue trace returns to its pre-fault
// behavior after a chaos perturbation: how long the backlog takes to
// drain back into the reference band, and how long until the queue
// oscillation re-locks onto a credible period again.
type Recovery struct {
	// RefMean and RefStd summarize the pre-fault samples; the reference
	// band is RefMean ± 2·RefStd.
	RefMean, RefStd float64
	// RefPeriod is the pre-fault oscillation period (0 when the
	// pre-fault trace shows no credible periodicity).
	RefPeriod float64

	// Drained reports whether the trace re-entered the reference band
	// after the fault window; DrainTime is the delay from fault end to
	// that first re-entry (0 when the trace never left the band).
	Drained   bool
	DrainTime float64

	// Relocked reports whether a sliding window after the fault end
	// regained a periodic lock (confidence ≥ 0.2, and period within
	// 50% of RefPeriod when one exists); RelockTime is the delay from
	// fault end to the end of that first window.
	Relocked   bool
	RelockTime float64
}

// Recovery tuning. The reference band is RefMean ± recoveryBand·RefStd;
// a sliding window locks when its autocorrelation confidence reaches
// relockConfidence and its period lies within relockPeriodTol (as a
// fraction) of RefPeriod. The window spans 4·RefPeriod, or 1/8 of the
// post-fault span when there is no reference period.
const (
	recoveryBand       = 2
	relockConfidence   = 0.2
	relockPeriodTol    = 0.5
	relockWindowCycles = 4
)

// MeasureRecovery computes fault-recovery metrics of a (typically queue
// occupancy) series around a perturbation window. The reference
// statistics come from the samples before faultStart; drain and re-lock
// are measured on the samples after faultEnd. Both bounds are absolute
// times in the series' unit.
func MeasureRecovery(s *Series, faultStart, faultEnd float64) Recovery {
	var r Recovery
	if s == nil || s.Len() == 0 || faultEnd < faultStart {
		return r
	}

	pre := NewSeries("pre-fault")
	post := NewSeries("post-fault")
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		switch {
		case p.T < faultStart:
			pre.Add(p.T, p.V)
		case p.T >= faultEnd:
			post.Add(p.T, p.V)
		}
	}
	var w Welford
	for i := 0; i < pre.Len(); i++ {
		w.Add(pre.At(i).V)
	}
	r.RefMean, r.RefStd = w.Mean(), w.StdDev()
	r.RefPeriod, _ = EstimatePeriod(pre)
	if post.Len() == 0 {
		return r
	}

	// Time-to-drain: first post-fault instant the occupancy is back at
	// or below the reference band's upper edge.
	upper := r.RefMean + recoveryBand*r.RefStd
	for i := 0; i < post.Len(); i++ {
		if p := post.At(i); p.V <= upper {
			r.Drained = true
			r.DrainTime = p.T - faultEnd
			break
		}
	}

	// Re-lock: slide a window over the post-fault trace until
	// EstimatePeriod reports a credible lock again.
	span := post.At(post.Len()-1).T - post.At(0).T
	window := relockWindowCycles * r.RefPeriod
	if window == 0 {
		window = span / 8
	}
	if window <= 0 || span < window {
		return r
	}
	step := window / 4
	for start := post.At(0).T; start+window <= post.At(post.Len()-1).T+step/2; start += step {
		win := NewSeries("relock-window")
		for i := 0; i < post.Len(); i++ {
			p := post.At(i)
			if p.T >= start && p.T <= start+window {
				win.Add(p.T, p.V)
			}
		}
		period, conf := EstimatePeriod(win)
		if conf < relockConfidence || period <= 0 {
			continue
		}
		if r.RefPeriod > 0 {
			dev := period/r.RefPeriod - 1
			if dev < 0 {
				dev = -dev
			}
			if dev > relockPeriodTol {
				continue
			}
		}
		r.Relocked = true
		r.RelockTime = start + window - faultEnd
		if r.RelockTime < 0 {
			r.RelockTime = 0
		}
		break
	}
	return r
}
