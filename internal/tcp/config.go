// Package tcp implements the transport endpoints of the experiments: a
// window-based TCP sender/receiver pair with slow start, congestion
// avoidance, NewReno fast recovery and RTO, plus the two ECN responses the
// paper compares — classic RFC3168 halving and DCTCP's α-proportional
// decrease. The switch-side marking laws live in internal/aqm; this
// package is the end-host side.
//
// Connection establishment and teardown are not modelled: flows start
// sending in slow start immediately, which matches how both the paper and
// the original DCTCP evaluation configure ns-2.
package tcp

import (
	"time"
)

// Variant selects the congestion-control response to ECN marks.
type Variant int

// Congestion control variants.
const (
	// Reno is plain NewReno with no ECN reaction (marks are ignored,
	// losses drive the window).
	Reno Variant = iota + 1
	// RenoECN is NewReno with the RFC3168 response: halve the window at
	// most once per RTT when ECE arrives.
	RenoECN
	// DCTCP estimates the marked fraction α and reduces the window by
	// α/2 once per window of data, per Alizadeh et al.
	DCTCP
	// Cubic is loss-driven CUBIC (RFC 8312), the Linux default of the
	// paper's era, with no ECN reaction: the congestion-avoidance window
	// follows the cubic curve W(t) = C·(t−K)³ + Wmax anchored at the
	// last loss event, bounded below by the Reno-friendly region.
	Cubic
	// D2TCP is the deadline-aware DCTCP of Vamanan et al. (SIGCOMM'12),
	// cited by the paper as a DCTCP successor: the per-window reduction
	// uses the penalty p = α^d, where the urgency d > 1 for flows close
	// to their deadline (a smaller penalty, hence gentler backoff) and
	// d < 1 for flows with slack (harsher backoff). Without a deadline
	// it degenerates to DCTCP (d = 1).
	D2TCP
	// DCTCPPlus is DCTCP with the slow-timer backoff state machine
	// (DCTCP_NORMAL / DCTCP_TIME_INC / DCTCP_TIME_DES): once the window
	// has collapsed to its floor and congestion persists, the sender
	// stops pushing harder and instead paces every transmission by a
	// randomized slow-timer delay, growing the timer additively per
	// congested window and shrinking it multiplicatively per clear one.
	// It attacks the incast-oscillation regime from the sender side,
	// where DT-DCTCP attacks it from the marking side.
	DCTCPPlus
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Reno:
		return "reno"
	case RenoECN:
		return "reno-ecn"
	case DCTCP:
		return "dctcp"
	case Cubic:
		return "cubic"
	case D2TCP:
		return "d2tcp"
	case DCTCPPlus:
		return "dctcp+"
	default:
		return "invalid"
	}
}

// Config carries the endpoint parameters. The zero value is not usable;
// call DefaultConfig and override fields.
type Config struct {
	// Variant selects the congestion-control response.
	Variant Variant
	// MSS is the maximum payload bytes per segment.
	MSS int
	// HeaderBytes is added to every packet on the wire; a pure ACK is
	// exactly HeaderBytes long.
	HeaderBytes int
	// InitialWindow is the initial congestion window in segments.
	InitialWindow int
	// G is DCTCP's EWMA gain for α (the paper uses 1/16).
	G float64
	// InitialAlpha seeds DCTCP's α estimate; the conservative choice
	// of 1 matches the reference implementation.
	InitialAlpha float64
	// AckEvery sets the delayed-ACK factor: 1 acknowledges every
	// segment, 2 every other segment. The DCTCP ECE echo state machine
	// flushes early whenever the CE state changes.
	AckEvery int
	// DelayedAckTimeout bounds how long the receiver holds a delayed
	// ACK.
	DelayedAckTimeout time.Duration
	// RTOMin clamps the retransmission timeout from below. The paper's
	// incast experiments inherit the Linux default of 200 ms.
	RTOMin time.Duration
	// RTOInitial is the timeout before any RTT sample exists.
	RTOInitial time.Duration
	// RTOMax caps exponential backoff.
	RTOMax time.Duration

	// BackoffUnit is DCTCP+'s additive slow-timer increment: each
	// congested observation window at the cwnd floor grows the pacing
	// delay by this much.
	BackoffUnit time.Duration
	// SlowTimerThreshold is the DCTCP+ floor below which the divided
	// slow timer snaps to zero and the sender returns to DCTCP_NORMAL.
	SlowTimerThreshold time.Duration
	// SlowTimerMax caps the DCTCP+ slow timer so pacing can never
	// stretch a transfer past RTO-collapse territory.
	SlowTimerMax time.Duration
	// DivisorFactor divides the DCTCP+ slow timer on every uncongested
	// observation window in DCTCP_TIME_DES (the reference uses 2).
	DivisorFactor float64
	// PacingSeed seeds the DCTCP+ sender's private pacing RNG. Workload
	// drivers draw it from the construction engine's seeded source — one
	// draw per sender, in construction order — so pacing randomness
	// stays a pure function of the run seed. Zero falls back to a
	// flow-derived constant.
	PacingSeed int64
}

// DefaultConfig returns the parameters used throughout the paper unless an
// experiment overrides them: 1.5 KB packets, IW3 (Linux 2.6.38 default),
// g = 1/16, per-segment ACKs, RTOmin = 200 ms.
func DefaultConfig(v Variant) Config {
	return Config{
		Variant:           v,
		MSS:               1460,
		HeaderBytes:       40,
		InitialWindow:     3,
		G:                 1.0 / 16,
		InitialAlpha:      1,
		AckEvery:          1,
		DelayedAckTimeout: 500 * time.Microsecond,
		RTOMin:            200 * time.Millisecond,
		RTOInitial:        200 * time.Millisecond,
		RTOMax:            60 * time.Second,
		// DCTCP+ slow-timer defaults, scaled to the paper's ~100 µs
		// datacenter RTT (the ns-3 reference uses a 100 µs backoff unit).
		BackoffUnit:        100 * time.Microsecond,
		SlowTimerThreshold: 50 * time.Microsecond,
		SlowTimerMax:       5 * time.Millisecond,
		DivisorFactor:      2,
	}
}

// PacketSize returns the wire size of a full segment.
func (c Config) PacketSize() int { return c.MSS + c.HeaderBytes }

// ECT reports whether this variant negotiates ECN-capable transport.
func (c Config) ECT() bool { return c.Variant != Reno && c.Variant != Cubic }

// dctcpLike reports whether the variant runs DCTCP's α estimator.
func (v Variant) dctcpLike() bool { return v == DCTCP || v == D2TCP || v == DCTCPPlus }

// sanitize fills unset fields with defaults so harness code can specify
// only what it cares about.
func (c Config) sanitize() Config {
	d := DefaultConfig(c.Variant)
	if c.Variant == 0 {
		c.Variant = DCTCP
	}
	if c.MSS <= 0 {
		c.MSS = d.MSS
	}
	if c.HeaderBytes <= 0 {
		c.HeaderBytes = d.HeaderBytes
	}
	if c.InitialWindow <= 0 {
		c.InitialWindow = d.InitialWindow
	}
	if c.G <= 0 || c.G > 1 {
		c.G = d.G
	}
	if c.InitialAlpha < 0 || c.InitialAlpha > 1 {
		c.InitialAlpha = d.InitialAlpha
	}
	if c.AckEvery <= 0 {
		c.AckEvery = d.AckEvery
	}
	if c.DelayedAckTimeout <= 0 {
		c.DelayedAckTimeout = d.DelayedAckTimeout
	}
	if c.RTOMin <= 0 {
		c.RTOMin = d.RTOMin
	}
	if c.RTOInitial <= 0 {
		c.RTOInitial = d.RTOInitial
	}
	if c.RTOMax <= 0 {
		c.RTOMax = d.RTOMax
	}
	if c.BackoffUnit <= 0 {
		c.BackoffUnit = d.BackoffUnit
	}
	if c.SlowTimerThreshold <= 0 {
		c.SlowTimerThreshold = d.SlowTimerThreshold
	}
	if c.SlowTimerMax <= 0 {
		c.SlowTimerMax = d.SlowTimerMax
	}
	if c.DivisorFactor <= 1 {
		c.DivisorFactor = d.DivisorFactor
	}
	return c
}
