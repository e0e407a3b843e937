package topo

import (
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

func testCfg() Config {
	return Config{
		HostLink:   LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 256 * 1500},
		FabricLink: LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 256 * 1500},
	}
}

type sink struct {
	n  int
	at sim.Time
	e  *sim.Engine
}

func (s *sink) Deliver(*netsim.Packet) {
	s.n++
	if s.e != nil {
		s.at = s.e.Now()
	}
}

func TestFatTreeStructure(t *testing.T) {
	e := sim.NewEngine(1)
	nw := netsim.NewNetwork(e)
	f, err := FatTree(nw, 4, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Hosts) != 16 || len(f.Edge) != 8 || len(f.Agg) != 8 || len(f.Core) != 4 {
		t.Fatalf("k=4 tiers: %d hosts, %d edge, %d agg, %d core; want 16/8/8/4",
			len(f.Hosts), len(f.Edge), len(f.Agg), len(f.Core))
	}
	for i, sw := range f.Edge {
		if sw.Ports() != 4 {
			t.Fatalf("edge %d has %d ports, want 4 (2 hosts + 2 aggs)", i, sw.Ports())
		}
	}
	for i, sw := range f.Agg {
		if sw.Ports() != 4 {
			t.Fatalf("agg %d has %d ports, want 4 (2 edges + 2 cores)", i, sw.Ports())
		}
	}
	for i, sw := range f.Core {
		if sw.Ports() != 4 {
			t.Fatalf("core %d has %d ports, want 4 (one per pod)", i, sw.Ports())
		}
	}
	// Ports: 16 host uplinks + (8+8)·4 switch ports + 4·4 core ports.
	ports := len(nw.Hosts())
	for _, sw := range nw.Switches() {
		ports += sw.Ports()
	}
	if ports != 16+64+16 {
		t.Fatalf("fabric has %d ports, want 96", ports)
	}
	if got, want := len(f.CorePorts()), 16; got != want {
		t.Fatalf("CorePorts = %d, want %d", got, want)
	}
	if got, want := len(f.AggPorts()), 32; got != want {
		t.Fatalf("AggPorts = %d, want %d", got, want)
	}
	// Non-oversubscribed: bisection = half the 16 Gbps host capacity.
	wantBps := 16 * netsim.Gbps.BytesPerSecond() / 2
	if got := f.BisectionBps(); got != wantBps {
		t.Fatalf("BisectionBps = %v, want %v", got, wantBps)
	}
}

// TestFatTreePathLengths sends one packet between host pairs at each
// distance class and asserts the exact arrival time: ECMP must pick only
// shortest paths (2 links same-edge, 4 intra-pod, 6 inter-pod).
func TestFatTreePathLengths(t *testing.T) {
	e := sim.NewEngine(1)
	nw := netsim.NewNetwork(e)
	f, err := FatTree(nw, 4, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// 1000 B at 1 Gbps: 8 µs serialization + 10 µs propagation per link.
	perLink := sim.FromDuration(18 * time.Microsecond)
	cases := []struct {
		src, dst, links int
	}{
		{0, 1, 2},  // same edge switch
		{0, 2, 4},  // same pod, different edge
		{0, 4, 6},  // different pod
		{3, 15, 6}, // different pod, far corner
	}
	flow := netsim.FlowID(1)
	for _, tc := range cases {
		rx := &sink{e: e}
		f.Hosts[tc.dst].Register(flow, rx)
		sent := e.Now()
		f.Hosts[tc.src].Send(&netsim.Packet{Flow: flow, Dst: f.Hosts[tc.dst].ID(), Size: 1000})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if rx.n != 1 {
			t.Fatalf("%d→%d: not delivered", tc.src, tc.dst)
		}
		if want := sim.Time(tc.links) * perLink; rx.at-sent != want {
			t.Fatalf("%d→%d took %v, want %v (%d links)", tc.src, tc.dst, rx.at-sent, want, tc.links)
		}
		f.Hosts[tc.dst].Unregister(flow)
		flow++
	}
}

func TestFatTreeAllPairsReachable(t *testing.T) {
	e := sim.NewEngine(1)
	nw := netsim.NewNetwork(e)
	f, err := FatTree(nw, 4, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	flow := netsim.FlowID(1)
	for _, src := range f.Hosts {
		for _, dst := range f.Hosts {
			if src == dst {
				continue
			}
			rx := &sink{}
			dst.Register(flow, rx)
			src.Send(&netsim.Packet{Flow: flow, Dst: dst.ID(), Size: 100})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if rx.n != 1 {
				t.Fatalf("%s → %s not delivered", src.Name(), dst.Name())
			}
			dst.Unregister(flow)
			flow++
		}
	}
	for _, sw := range nw.Switches() {
		if sw.DroppedNoRoute() != 0 {
			t.Fatalf("switch %s dropped %d packets for lack of a route", sw.Name(), sw.DroppedNoRoute())
		}
	}
}

// uplinkSpread counts, per edge-switch uplink port, packets enqueued
// after sending one packet for each of n flows from host 0 to an
// inter-pod destination.
func uplinkSpread(t *testing.T, salt uint64, flows int) []uint64 {
	t.Helper()
	cfg := testCfg()
	cfg.Salt = &salt
	e := sim.NewEngine(1)
	nw := netsim.NewNetwork(e)
	f, err := FatTree(nw, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst := f.Hosts[12] // pod 3: inter-pod, 4 equal-cost paths
	for i := 0; i < flows; i++ {
		fl := netsim.FlowID(i + 1)
		rx := &sink{}
		dst.Register(fl, rx)
		f.Hosts[0].Send(&netsim.Packet{Flow: fl, Dst: dst.ID(), Size: 100})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if rx.n != 1 {
			t.Fatalf("flow %d not delivered", fl)
		}
		dst.Unregister(fl)
	}
	edge := f.Edge[0] // ports 0,1 face hosts; 2,3 face aggs
	return []uint64{edge.Port(2).Stats().Enqueued, edge.Port(3).Stats().Enqueued}
}

func TestFatTreeECMPSpreadsAndSaltMoves(t *testing.T) {
	a := uplinkSpread(t, 7, 64)
	if a[0] == 0 || a[1] == 0 {
		t.Fatalf("64 flows all hashed onto one uplink: %v", a)
	}
	if b := uplinkSpread(t, 7, 64); a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("same salt produced different placement: %v vs %v", a, b)
	}
	if c := uplinkSpread(t, 8, 64); a[0] == c[0] && a[1] == c[1] {
		t.Log("different salt left the uplink split unchanged (possible but unlikely)")
	}
}

func TestFatTreeValidation(t *testing.T) {
	e := sim.NewEngine(1)
	if _, err := FatTree(netsim.NewNetwork(e), 3, testCfg()); err == nil {
		t.Fatal("odd k accepted")
	}
	if _, err := FatTree(netsim.NewNetwork(e), 0, testCfg()); err == nil {
		t.Fatal("k=0 accepted")
	}
	bad := testCfg()
	bad.FabricLink.Delay = 0
	if _, err := FatTree(netsim.NewNetwork(e), 4, bad); err == nil {
		t.Fatal("zero fabric delay accepted")
	}
	nw := netsim.NewNetwork(e)
	nw.AddHost("stray")
	if _, err := FatTree(nw, 4, testCfg()); err == nil {
		t.Fatal("non-empty network accepted")
	}
}

func TestLeafSpineStructureAndReachability(t *testing.T) {
	e := sim.NewEngine(1)
	nw := netsim.NewNetwork(e)
	f, err := LeafSpine(nw, 3, 2, 4, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Hosts) != 12 || len(f.Edge) != 3 || len(f.Core) != 2 || len(f.Agg) != 0 {
		t.Fatalf("tiers: %d hosts, %d leaves, %d spines", len(f.Hosts), len(f.Edge), len(f.Core))
	}
	for i, leaf := range f.Edge {
		if leaf.Ports() != 4+2 {
			t.Fatalf("leaf %d has %d ports, want 6", i, leaf.Ports())
		}
	}
	// AggPorts in a leaf-spine = leaf→spine uplinks.
	if got, want := len(f.AggPorts()), 3*2; got != want {
		t.Fatalf("AggPorts = %d, want %d", got, want)
	}
	if got, want := len(f.CorePorts()), 2*3; got != want {
		t.Fatalf("CorePorts = %d, want %d", got, want)
	}
	// Oversubscribed 2:1 per leaf (4×1G hosts vs 2×1G uplinks): the core
	// tier caps the bisection at 6 Gbps / 2.
	if got, want := f.BisectionBps(), 6*netsim.Gbps.BytesPerSecond()/2; got != want {
		t.Fatalf("BisectionBps = %v, want %v", got, want)
	}
	flow := netsim.FlowID(1)
	for _, src := range f.Hosts {
		for _, dst := range f.Hosts {
			if src == dst {
				continue
			}
			rx := &sink{}
			dst.Register(flow, rx)
			src.Send(&netsim.Packet{Flow: flow, Dst: dst.ID(), Size: 100})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if rx.n != 1 {
				t.Fatalf("%s → %s not delivered", src.Name(), dst.Name())
			}
			dst.Unregister(flow)
			flow++
		}
	}
}

func TestLeafSpineValidation(t *testing.T) {
	e := sim.NewEngine(1)
	if _, err := LeafSpine(netsim.NewNetwork(e), 0, 2, 2, testCfg()); err == nil {
		t.Fatal("zero leaves accepted")
	}
	if _, err := LeafSpine(netsim.NewNetwork(e), 1, 1, 1, testCfg()); err == nil {
		t.Fatal("single-host fabric accepted")
	}
}

func TestNewStarShape(t *testing.T) {
	e := sim.NewEngine(7)
	nw := netsim.NewNetwork(e)
	access := netsim.PortConfig{Rate: 10 * netsim.Gbps, Delay: 20 * time.Microsecond, Buffer: 4000 * 1500}
	bneck := netsim.PortConfig{Rate: netsim.Gbps, Delay: 20 * time.Microsecond, Buffer: 400 * 1500}
	st, err := NewStar(nw, StarConfig{Senders: 3, Access: access, Bottleneck: bneck})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Senders) != 3 {
		t.Fatalf("senders = %d", len(st.Senders))
	}
	if st.Bottleneck != st.Switch.PortTo(st.Receiver.ID()) {
		t.Fatal("bottleneck is not the switch → receiver port")
	}
	if st.Bottleneck.Rate() != netsim.Gbps {
		t.Fatalf("bottleneck rate %v", st.Bottleneck.Rate())
	}
	// Receiver first, then senders: domain numbering contract.
	if hosts := nw.Hosts(); hosts[0] != st.Receiver || hosts[1] != st.Senders[0] {
		t.Fatal("star domain numbering changed")
	}
	if _, err := NewStar(nw, StarConfig{Senders: 1, Access: access, Bottleneck: bneck}); err == nil {
		t.Fatal("non-empty network accepted")
	}
}
