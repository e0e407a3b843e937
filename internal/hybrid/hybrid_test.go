package hybrid

import (
	"testing"
	"time"

	"dtdctcp/internal/fluid"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

const pktSize = 1500

// testbed is a one-hop a→sw→b topology; the returned port is the
// switch's egress toward b — the bottleneck the coupler drives.
func testbed(t *testing.T, e *sim.Engine, rate netsim.Rate, bufferPkts int) (*netsim.Host, *netsim.Host, *netsim.Port) {
	t.Helper()
	n := netsim.NewNetwork(e)
	a := n.AddHost("a")
	b := n.AddHost("b")
	sw := n.AddSwitch("sw")
	cfg := netsim.PortConfig{Rate: rate, Delay: 10 * time.Microsecond, Buffer: bufferPkts * pktSize}
	if err := n.Connect(a, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(b, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	port := sw.PortTo(b.ID())
	if port == nil {
		t.Fatal("no switch port toward b")
	}
	return a, b, port
}

// fluidCfg models background flows on a rate-bps bottleneck.
func fluidCfg(n float64, rate netsim.Rate) fluid.Config {
	return fluid.Config{
		N:           n,
		C:           float64(rate) / 8 / pktSize,
		D:           100 * 1e-6,
		G:           1.0 / 16,
		Law:         fluid.SingleThreshold{K: 40},
		RTTRefQueue: 40,
		BufferLimit: 600,
	}
}

// TestCouplerMatchesStandaloneStepperWithoutForeground pins the neutral
// case: with no foreground traffic the coupler's fluid trajectory is
// bit-identical to a standalone stepper at the same step size — the
// coupling machinery itself adds no perturbation.
func TestCouplerMatchesStandaloneStepperWithoutForeground(t *testing.T) {
	e := sim.NewEngine(1)
	_, _, port := testbed(t, e, netsim.Gbps, 600)
	cfg := Config{
		Fluid:   fluidCfg(100, netsim.Gbps),
		Port:    port,
		Horizon: 20 * time.Millisecond,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	ref := fluidCfg(100, netsim.Gbps)
	ref.Step = c.Interval().Seconds() / 8
	stp, err := fluid.NewStepper(ref)
	if err != nil {
		t.Fatal(err)
	}
	stp.Advance(c.Ticks() * 8)
	if got, want := c.Stepper().State(), stp.State(); got != want {
		t.Fatalf("coupled trajectory diverged from standalone: %+v != %+v", got, want)
	}
	if c.Ticks() == 0 {
		t.Fatal("coupler never ticked")
	}
}

// TestCouplerInstallsFluidLoadOnPort verifies phase 4: after a run whose
// background flows build a standing queue, the port carries the fluid
// queue as ambient bytes and the fluid departure rate as consumed rate.
func TestCouplerInstallsFluidLoadOnPort(t *testing.T) {
	e := sim.NewEngine(1)
	_, _, port := testbed(t, e, netsim.Gbps, 600)
	c, err := New(Config{
		Fluid:   fluidCfg(100, netsim.Gbps),
		Port:    port,
		Horizon: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	st := c.Stepper().State()
	if st.Q <= 0 {
		t.Fatalf("background flows built no queue (q = %v); test is vacuous", st.Q)
	}
	if got, want := port.AmbientBytes(), int(st.Q*pktSize+0.5); got != want {
		t.Fatalf("port ambient bytes %d, want %d (fluid q %v pkts)", got, want, st.Q)
	}
	wantRate := netsim.Rate(c.Stepper().DepartureRate()*pktSize*8 + 0.5)
	if cap := port.Rate() - port.Rate()/1000; wantRate > cap {
		wantRate = cap // SetAmbient never lets ambient starve packets fully
	}
	if got := port.AmbientRate(); got != wantRate {
		t.Fatalf("port ambient rate %v, want %v", got, wantRate)
	}
	if port.AmbientRate() <= 0 {
		t.Fatal("backlogged background flows consume no bandwidth; test is vacuous")
	}
}

// TestCouplerForegroundOfferedLoadStarvesFluidDrain verifies phase 1: a
// foreground packet stream through the bottleneck lowers the fluid
// drain capacity below the link rate.
func TestCouplerForegroundOfferedLoadStarvesFluidDrain(t *testing.T) {
	e := sim.NewEngine(1)
	a, b, port := testbed(t, e, netsim.Gbps, 600)
	fcfg := fluidCfg(100, netsim.Gbps)
	c, err := New(Config{Fluid: fcfg, Port: port, Horizon: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(e)

	// Saturating foreground stream: one packet per serialization time.
	gap := netsim.Gbps.Serialization(pktSize)
	for i := 0; i < 10000; i++ {
		at := sim.TimeZero.Add(time.Duration(i) * gap)
		if at > sim.FromDuration(15*time.Millisecond) {
			break
		}
		e.ScheduleArg(at, func(any) {
			a.Send(&netsim.Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
		}, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stepper().DrainCapacity(); got >= fcfg.C {
		t.Fatalf("fluid drain %v not starved below link capacity %v", got, fcfg.C)
	}
}

// TestCouplerStopsAtHorizon pins the tick period and count: the tick is
// R₀/8 on the nanosecond grid, ticks fire at every multiple of it in
// (0, horizon] and then stop, so Run terminates.
func TestCouplerStopsAtHorizon(t *testing.T) {
	e := sim.NewEngine(1)
	_, _, port := testbed(t, e, netsim.Gbps, 600)
	fcfg := fluidCfg(100, netsim.Gbps)
	const horizon = 10 * time.Millisecond
	c, err := New(Config{Fluid: fcfg, Port: port, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	interval := time.Duration(fcfg.R0() * float64(time.Second) / 8)
	if c.Interval() != interval {
		t.Fatalf("interval = %v, want R₀/8 = %v", c.Interval(), interval)
	}
	c.Start(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Ticks(), int(horizon/interval); got != want || want < 2 {
		t.Fatalf("ticks = %d, want %d", got, want)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	e := sim.NewEngine(1)
	_, _, port := testbed(t, e, netsim.Gbps, 600)
	good := Config{Fluid: fluidCfg(100, netsim.Gbps), Port: port, Horizon: time.Millisecond}

	bad := []func(*Config){
		func(c *Config) { c.Port = nil },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Horizon = -time.Second },
		func(c *Config) { c.PktSize = -1 },
		func(c *Config) { c.Fluid.N = 0 },
		func(c *Config) { c.Fluid.Law = nil },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
	if _, err := New(good); err != nil {
		t.Fatalf("New rejected valid config: %v", err)
	}
}
