package netsim

import (
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

// diamond wires h0 — s0 — {sA, sB} — s3 — h1: two equal-cost two-hop
// paths between the edge switches. Routes are computed with ECMP under
// the given salt.
func diamond(t testing.TB, salt uint64) (*sim.Engine, *Network, *Host, *Host, *Switch, *Switch, *Switch) {
	t.Helper()
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	h0 := n.AddHost("h0")
	h1 := n.AddHost("h1")
	s0 := n.AddSwitch("s0")
	sA := n.AddSwitch("sA")
	sB := n.AddSwitch("sB")
	s3 := n.AddSwitch("s3")
	cfg := linkCfg(Gbps, 10*time.Microsecond, 1<<14, nil)
	for _, pair := range [][2]Node{{h0, s0}, {s0, sA}, {s0, sB}, {sA, s3}, {sB, s3}, {s3, h1}} {
		if err := n.Connect(pair[0], pair[1], cfg, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.ComputeRoutesECMP(salt); err != nil {
		t.Fatal(err)
	}
	return e, n, h0, h1, s0, sA, s3
}

// driveDiamond pushes count packets per flow (flows 1..flows) from h0 to
// h1, spaced 5µs apart, allocating through the host pool, and returns
// the delivery counter.
func driveDiamond(h0, h1 *Host, flows, count int) *countingSink {
	sink := &countingSink{}
	for f := 1; f <= flows; f++ {
		h1.Register(FlowID(f), sink)
	}
	e := h0.Engine()
	sent := 0
	var step func()
	step = func() {
		for f := 1; f <= flows; f++ {
			pkt := h0.AllocPacket()
			pkt.Flow = FlowID(f)
			pkt.Dst = h1.ID()
			pkt.Size = 1500
			h0.Send(pkt)
		}
		sent++
		if sent < count {
			e.After(5*time.Microsecond, step)
		}
	}
	step()
	return sink
}

func TestECMPSetsOnDiamond(t *testing.T) {
	_, _, _, h1, s0, _, s3 := diamond(t, 7)
	set := s0.ecmp[h1.ID()]
	if len(set) != 2 {
		t.Fatalf("s0 ECMP set toward h1 = %v, want 2 equal-cost ports", set)
	}
	// Port order: port 0 leads back to h0, ports 1 and 2 to sA and sB.
	if set[0] != 1 || set[1] != 2 {
		t.Fatalf("ECMP set = %v, want [1 2] (port-index order)", set)
	}
	// The last-hop switch has exactly one shortest path to each host.
	if len(s3.ecmp[h1.ID()]) != 0 {
		t.Fatal("s3 has an ECMP set toward its directly attached host")
	}
}

func TestECMPMatchesSinglePathRoutingOnTrees(t *testing.T) {
	// On a line (a tree), ECMP routing must agree with ComputeRoutes
	// exactly and produce no multi-path sets.
	build := func(compute func(n *Network) error) *Network {
		e := sim.NewEngine(1)
		n := NewNetwork(e)
		cfg := linkCfg(Gbps, 10*time.Microsecond, 1<<14, nil)
		s0 := n.AddSwitch("s0")
		s1 := n.AddSwitch("s1")
		h0 := n.AddHost("h0")
		h1 := n.AddHost("h1")
		for _, pair := range [][2]Node{{h0, s0}, {s0, s1}, {s1, h1}} {
			if err := n.Connect(pair[0], pair[1], cfg, cfg); err != nil {
				t.Fatal(err)
			}
		}
		if err := compute(n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	plain := build(func(n *Network) error { return n.ComputeRoutes() })
	ecmp := build(func(n *Network) error { return n.ComputeRoutesECMP(99) })
	for i, s := range ecmp.Switches() {
		if len(s.ecmp) != 0 {
			t.Fatalf("switch %d has ECMP sets %v on a tree", i, s.ecmp)
		}
		want := plain.Switches()[i].routes
		for dst, idx := range want {
			if got := s.routes[dst]; got != idx {
				t.Fatalf("switch %d route to %d = %d, want %d", i, dst, got, idx)
			}
		}
		if len(s.routes) != len(want) {
			t.Fatalf("switch %d has %d routes, want %d", i, len(s.routes), len(want))
		}
	}
}

func TestECMPChoiceIsPerFlowStableAndBalanced(t *testing.T) {
	_, _, _, h1, s0, _, _ := diamond(t, 7)
	used := map[int]int{}
	for flow := FlowID(1); flow <= 64; flow++ {
		pkt := &Packet{Flow: flow, Dst: h1.ID()}
		idx, ok := s0.egress(pkt)
		if !ok {
			t.Fatalf("no egress for flow %d", flow)
		}
		for i := 0; i < 4; i++ {
			again, _ := s0.egress(pkt)
			if again != idx {
				t.Fatalf("flow %d egress flapped %d → %d", flow, idx, again)
			}
		}
		used[idx]++
	}
	if len(used) != 2 {
		t.Fatalf("64 flows used ports %v, want both equal-cost ports", used)
	}
	if used[1] < 16 || used[2] < 16 {
		t.Fatalf("hash badly skewed: %v", used)
	}
}

func TestECMPSaltChangesPlacement(t *testing.T) {
	_, _, _, h1a, s0a, _, _ := diamond(t, 1)
	_, _, _, h1b, s0b, _, _ := diamond(t, 2)
	diff := 0
	for flow := FlowID(1); flow <= 64; flow++ {
		a, _ := s0a.egress(&Packet{Flow: flow, Dst: h1a.ID()})
		b, _ := s0b.egress(&Packet{Flow: flow, Dst: h1b.ID()})
		if a != b {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("changing the salt moved no flow")
	}
}

func TestECMPDeliversAcrossBothPaths(t *testing.T) {
	e, _, h0, h1, _, sA, _ := diamond(t, 7)
	const flows = 32
	sinks := make([]*sink, flows)
	for i := range sinks {
		sinks[i] = &sink{}
		h1.Register(FlowID(i+1), sinks[i])
	}
	for i := 0; i < flows; i++ {
		h0.Send(&Packet{Flow: FlowID(i + 1), Dst: h1.ID(), Size: 1000})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, rx := range sinks {
		if len(rx.pkts) != 1 {
			t.Fatalf("flow %d delivered %d packets, want 1", i+1, len(rx.pkts))
		}
	}
	// Both middle switches must have carried some of the 32 flows.
	viaA := sA.Port(1).Stats().Enqueued // sA port toward s3
	if viaA == 0 || viaA == flows {
		t.Fatalf("path split %d/%d via sA, want a real split", viaA, flows)
	}
}

func TestPortToUsesWiringIndex(t *testing.T) {
	_, _, h0, h1, s0, sA, _ := diamond(t, 7)
	if got := s0.PortTo(h0.ID()); got != s0.Port(0) {
		t.Fatal("PortTo(h0) is not port 0")
	}
	if got := s0.PortTo(sA.ID()); got != s0.Port(1) {
		t.Fatal("PortTo(sA) is not port 1")
	}
	if got := s0.PortTo(h1.ID()); got != nil {
		t.Fatal("PortTo on a non-neighbour must be nil")
	}
}

func TestConnectRejectsDuplicateSwitchLink(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	s0 := n.AddSwitch("s0")
	s1 := n.AddSwitch("s1")
	cfg := linkCfg(Gbps, time.Microsecond, 1<<14, nil)
	if err := n.Connect(s0, s1, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(s0, s1, cfg, cfg); err == nil {
		t.Fatal("duplicate parallel link accepted; ECMP indexing requires one port per peer")
	}
}

// BenchmarkPortTo pins the satellite: peer lookup must stay a map access,
// not a linear port scan — it sits on route computation and on every
// experiment's bottleneck-port wiring, and fat-tree switches have dozens
// of ports.
func BenchmarkPortTo(b *testing.B) {
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	sw := n.AddSwitch("sw")
	cfg := linkCfg(Gbps, time.Microsecond, 1<<14, nil)
	hosts := make([]*Host, 64)
	for i := range hosts {
		hosts[i] = n.AddHost("h")
		if err := n.Connect(hosts[i], sw, cfg, cfg); err != nil {
			b.Fatal(err)
		}
	}
	if err := n.ComputeRoutes(); err != nil {
		b.Fatal(err)
	}
	last := hosts[len(hosts)-1].ID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sw.PortTo(last) == nil {
			b.Fatal("lost peer")
		}
	}
}

// BenchmarkSwitchEgressECMP pins the per-packet ECMP resolution cost:
// one map probe, one hash, one slice index.
func BenchmarkSwitchEgressECMP(b *testing.B) {
	_, _, _, h1, s0, _, _ := diamond(b, 7)
	pkt := &Packet{Flow: 3, Dst: h1.ID()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s0.egress(pkt); !ok {
			b.Fatal("no egress")
		}
	}
}

// queueLog records queue-change notifications for MultiMonitor fan-out.
type queueLog struct{ n int }

func (q *queueLog) QueueChanged(sim.Time, int) { q.n++ }

func TestMultiMonitorFansOut(t *testing.T) {
	e, _, h0, h1, _, _, _ := diamond(t, 7)
	a, b := &queueLog{}, &queueLog{}
	h0.Uplink().SetMonitor(MultiMonitor{a, b})
	sink := driveDiamond(h0, h1, 1, 10)
	if err := e.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sink.n != 10 {
		t.Fatalf("delivered %d, want 10", sink.n)
	}
	if a.n == 0 || a.n != b.n {
		t.Fatalf("monitors saw %d and %d changes, want equal and nonzero", a.n, b.n)
	}
}
