package tcp

import (
	"math/rand"
	"time"

	"dtdctcp/internal/sim"
)

// PlusState is the DCTCP+ slow-timer state, mirroring the ns-3 reference
// (TcpDctcpPlus): NORMAL sends unpaced; TIME_INC grows the slow timer
// additively while congestion persists at the window floor; TIME_DES
// shrinks it multiplicatively once congestion clears, snapping back to
// NORMAL below the threshold.
type PlusState int

// DCTCP+ slow-timer states.
const (
	PlusNormal PlusState = iota
	PlusTimeInc
	PlusTimeDes
)

// String names the state after the reference implementation's enum.
func (st PlusState) String() string {
	switch st {
	case PlusNormal:
		return "DCTCP_NORMAL"
	case PlusTimeInc:
		return "DCTCP_TIME_INC"
	case PlusTimeDes:
		return "DCTCP_TIME_DES"
	default:
		return "invalid"
	}
}

// plusPacer carries one DCTCP+ sender's slow-timer machinery. Pacing
// randomness comes from a sender-private RNG seeded at construction from
// the run's root source (Config.PacingSeed): runtime draws never touch
// the engine RNG, so pacing leaves the engine's random stream, and with
// it every other variant's draws, untouched.
type plusPacer struct {
	state    PlusState
	slowTime time.Duration
	// congested latches loss signals (retransmission, RTO) between
	// observation-window closings; ECE marks are already counted by the
	// α estimator's markedBytes.
	congested bool
	timer     *sim.Timer
	armed     bool
	rng       *rand.Rand
}

func newPlusPacer(s *Sender, cfg Config) *plusPacer {
	seed := cfg.PacingSeed
	if seed == 0 {
		// Deterministic flow-derived fallback for directly constructed
		// senders (unit tests, ad-hoc harnesses).
		seed = int64(s.flow) + 1
	}
	p := &plusPacer{
		//dtlint:allow nondeterm: seeded from the construction engine's source via Config.PacingSeed
		rng: rand.New(rand.NewSource(seed)),
	}
	p.timer = sim.NewTimer(s.engine, s.onPace)
	return p
}

// delay draws one randomized pacing delay, uniform in
// [slowTime/2, 3·slowTime/2) — the reference's randomizeSendingTime
// around the slow timer.
func (p *plusPacer) delay() time.Duration {
	return time.Duration(float64(p.slowTime) * (0.5 + p.rng.Float64()))
}

// tick advances the state machine at the close of one observation
// window. congested means the window saw ECE marks, a retransmission or
// an RTO; atFloor means the congestion window sits at its minimum, the
// regime where conventional DCTCP has nothing left to cut and incast
// rounds devolve into synchronized bursts.
func (p *plusPacer) tick(cfg Config, congested, atFloor bool) {
	switch p.state {
	case PlusNormal:
		if congested && atFloor {
			p.state = PlusTimeInc
			p.grow(cfg)
		}
	case PlusTimeInc:
		if congested {
			p.grow(cfg)
		} else {
			p.state = PlusTimeDes
		}
	case PlusTimeDes:
		if congested {
			p.state = PlusTimeInc
			p.grow(cfg)
		} else {
			p.slowTime = time.Duration(float64(p.slowTime) / cfg.DivisorFactor)
			if p.slowTime <= cfg.SlowTimerThreshold {
				p.slowTime = 0
				p.state = PlusNormal
			}
		}
	}
	p.congested = false
}

// grow applies the additive slow-timer increase, capped at SlowTimerMax.
func (p *plusPacer) grow(cfg Config) {
	p.slowTime += cfg.BackoffUnit
	if p.slowTime > cfg.SlowTimerMax {
		p.slowTime = cfg.SlowTimerMax
	}
}

// PlusState returns the DCTCP+ slow-timer state (PlusNormal for other
// variants).
func (s *Sender) PlusState() PlusState {
	if s.plus == nil {
		return PlusNormal
	}
	return s.plus.state
}

// SlowTime returns the DCTCP+ slow-timer value (zero for other variants
// and in DCTCP_NORMAL).
func (s *Sender) SlowTime() time.Duration {
	if s.plus == nil {
		return 0
	}
	return s.plus.slowTime
}

// onPace fires when the randomized pacing delay elapses: release exactly
// one segment, then fall back into trySend, which re-arms the pacer for
// the next segment while the slow timer is nonzero.
func (s *Sender) onPace() {
	s.plus.armed = false
	if s.completed {
		return
	}
	inFlight := float64(s.sndNxt - s.sndUna)
	if inFlight+float64(s.cfg.MSS) > s.cwnd+0.5 {
		return
	}
	payload := int64(s.cfg.MSS)
	if s.total > 0 {
		remaining := s.total - s.sndNxt
		if remaining <= 0 {
			return
		}
		if remaining < payload {
			payload = remaining
		}
	}
	s.stats.PacedSegments++
	s.transmit(s.sndNxt, int(payload))
	s.sndNxt += payload
	s.trySend()
}
