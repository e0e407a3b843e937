// Package hybrid couples the fluid model of internal/fluid to the
// packet-level simulator of internal/netsim for hybrid co-simulation:
// thousands of long-lived background flows are modeled as the Alizadeh
// fluid ODE feeding the bottleneck's queue, while foreground flows stay
// packet-level against that time-varying ambient load.
//
// The Coupler is the bridge. On a fixed virtual-time tick it
//
//  1. measures the packet-level offered load at the bottleneck since the
//     previous tick (enqueues plus drops — arrivals are not throttled by
//     the bottleneck's service rate, so the measurement cannot deadlock)
//     and lowers the fluid drain capacity by the foreground's FIFO
//     share: the full offered rate while the link has room, the
//     proportional share C·r/(A+r) once fluid and foreground arrivals
//     together exceed capacity — per-class FIFO departure tracks
//     per-class arrival share under overload;
//  2. feeds the bottleneck's real queue occupancy into the fluid model
//     as ambient queue, so the background flows' marking feedback and
//     RTT react to foreground backlog;
//  3. advances the fluid integration by a whole number of RK4 steps
//     (the tick is an exact multiple of the step, so fluid time and
//     virtual time never drift);
//  4. installs the resulting fluid queue level and departure rate on the
//     port as ambient load (netsim.Port.SetAmbient), biasing the AQM's
//     marking/drop decisions, the overflow check, the queue monitor, and
//     the processor-sharing serialization rate the foreground packets
//     see (their share of the link tracks their share of the total
//     backlog, reproducing FIFO delay through the ambient queue).
//
// Both directions relax toward FIFO bandwidth sharing: fluid backlog
// slows packets, packet offered load starves the fluid drain, and each
// side's queue contribution feeds the other's congestion signals.
//
// Ticks are engine events stamped with a reserved source key
// (SrcKey), far above any topology domain index. Under the engine's
// (at, schedAt, srcKey, srcSeq, seq) ordering key, a tick tied with a
// packet delivery on both firing and scheduling instant runs after it,
// whatever order the two were scheduled in.
package hybrid

import (
	"errors"
	"time"

	"dtdctcp/internal/fluid"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// SrcKey is the reserved event-source key coupling ticks are scheduled
// under. Topology domain indices are small (hosts + switch ports);
// reserving a key this large keeps tick ordering stable against any
// realistic topology.
const SrcKey = 1 << 30

// ewmaGain smooths the per-tick foreground offered-load measurement
// before it starves the fluid drain: raw per-tick rates quantize to
// whole packets and would inject measurement noise into the ODE.
const ewmaGain = 0.25

// stepsPerTick is the number of RK4 steps per coupling tick. The tick
// is R₀/8 (rounded down to the nanosecond grid), so the fluid step is
// R₀/64.
const stepsPerTick = 8

// Config parameterizes one fluid/packet coupling.
type Config struct {
	// Fluid is the background-flow model. Duration, Step and SampleEvery
	// are ignored: the Coupler integrates indefinitely, stepsPerTick RK4
	// steps per R₀/8 coupling tick.
	Fluid fluid.Config
	// Port is the bottleneck egress the background flows share with
	// foreground traffic. It must run on the engine the Coupler is
	// started on.
	Port *netsim.Port
	// PktSize converts fluid packets to bytes; zero selects 1500.
	PktSize int
	// Horizon stops the tick chain: no tick is scheduled past it.
	Horizon time.Duration
}

// Coupler drives one fluid background model against one bottleneck port.
type Coupler struct {
	stepper *fluid.Stepper
	port    *netsim.Port
	engine  *sim.Engine

	pktSize     float64
	interval    time.Duration
	intervalSec float64
	horizon     sim.Time
	fluidC      float64 // link capacity in fluid packets/second

	tickFn      func(any)
	seq         uint64
	ticks       int
	lastOffered uint64
	fgRate      float64 // EWMA of foreground offered load, packets/second
}

// New validates the configuration and builds a Coupler. The fluid
// stepper is created here with its step pinned to a stepsPerTick-th of
// the tick, so one tick advances fluid time by exactly one interval.
func New(cfg Config) (*Coupler, error) {
	if cfg.Port == nil {
		return nil, errors.New("hybrid: nil port")
	}
	if cfg.Horizon <= 0 {
		return nil, errors.New("hybrid: non-positive horizon")
	}
	pktSize := cfg.PktSize
	if pktSize == 0 {
		pktSize = 1500
	}
	if pktSize < 0 {
		return nil, errors.New("hybrid: negative packet size")
	}
	interval := time.Duration(cfg.Fluid.R0() * float64(time.Second) / 8)
	if interval <= 0 {
		return nil, errors.New("hybrid: non-positive interval")
	}
	fcfg := cfg.Fluid
	fcfg.Step = interval.Seconds() / stepsPerTick
	stp, err := fluid.NewStepper(fcfg)
	if err != nil {
		return nil, err
	}
	return &Coupler{
		stepper:     stp,
		port:        cfg.Port,
		pktSize:     float64(pktSize),
		interval:    interval,
		intervalSec: interval.Seconds(),
		horizon:     sim.FromDuration(cfg.Horizon),
		fluidC:      fcfg.C,
	}, nil
}

// Stepper exposes the fluid integration for observation and digesting.
func (c *Coupler) Stepper() *fluid.Stepper { return c.stepper }

// Ticks returns the number of coupling ticks executed so far.
func (c *Coupler) Ticks() int { return c.ticks }

// Interval returns the coupling tick period.
func (c *Coupler) Interval() time.Duration { return c.interval }

// Start schedules the tick chain on e, which must be the engine the
// bottleneck port runs on. The first tick fires one interval in; ticks
// then self-perpetuate until Horizon.
func (c *Coupler) Start(e *sim.Engine) {
	c.engine = e
	c.lastOffered = offeredPackets(c.port.Stats())
	//dtlint:hotpath
	c.tickFn = func(any) { c.tick() }
	c.schedule(e.Now().Add(c.interval))
}

func (c *Coupler) schedule(at sim.Time) {
	if at > c.horizon {
		return
	}
	c.engine.ScheduleSrcArg(at, SrcKey, c.seq, c.tickFn, nil)
	c.seq++
}

// tick is one coupling exchange; see the package comment for the four
// phases. It runs on the simulation goroutine and must stay alloc-free:
// at the default interval it fires tens of thousands of times per
// simulated second.
//
//dtlint:hotpath
func (c *Coupler) tick() {
	// Foreground offered load since the last tick, smoothed, sets the
	// foreground's FIFO share of the drain. Offered load (enqueues plus
	// drops) is measured at arrival, before the bottleneck serializes
	// anything, so a temporarily starved foreground still registers
	// demand and wins back its share — measuring achieved throughput
	// instead would deadlock at zero.
	offered := offeredPackets(c.port.Stats())
	measured := float64(offered-c.lastOffered) / c.intervalSec
	c.lastOffered = offered
	c.fgRate += ewmaGain * (measured - c.fgRate)
	fgShare := c.fgRate
	if total := c.stepper.ArrivalRate() + c.fgRate; total > c.fluidC {
		// Overloaded: FIFO departs each class at its arrival share.
		fgShare = c.fluidC * c.fgRate / total
	}
	c.stepper.SetDrainCapacity(c.fluidC - fgShare)

	// The real packet backlog is ambient occupancy for the fluid side.
	c.stepper.SetAmbientQueue(float64(c.port.QueueLen()) / c.pktSize)

	c.stepper.Advance(stepsPerTick)

	// The fluid queue and departure rate become the port's ambient load.
	st := c.stepper.State()
	dep := c.stepper.DepartureRate()
	c.port.SetAmbient(
		int(st.Q*c.pktSize+0.5),
		netsim.Rate(dep*c.pktSize*8+0.5),
	)

	c.ticks++
	c.schedule(c.engine.Now().Add(c.interval))
}

// offeredPackets counts arrivals at the port — everything the foreground
// tried to put through, whether it was queued or dropped.
//
//dtlint:hotpath
func offeredPackets(st netsim.PortStats) uint64 {
	return st.Enqueued + st.DroppedOverflow + st.DroppedPolicy
}
