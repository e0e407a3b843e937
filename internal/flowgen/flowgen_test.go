package flowgen

import (
	"testing"
	"time"

	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
	"dtdctcp/internal/topo"
)

func testFabric(t *testing.T, seed int64) (*sim.Engine, *topo.Fabric) {
	t.Helper()
	e := sim.NewEngine(seed)
	nw := netsim.NewNetwork(e)
	f, err := topo.LeafSpine(nw, 2, 2, 2, topo.Config{
		HostLink:   topo.LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 256 * 1500},
		FabricLink: topo.LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 256 * 1500},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, f
}

func testConfig(t *testing.T, f *topo.Fabric, flows int) Config {
	t.Helper()
	cdf, err := BuiltinCDF(WebSearchSmall)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		CDF:         cdf,
		Load:        0.3,
		CapacityBps: f.BisectionBps(),
		Flows:       flows,
		TCP:         tcp.DefaultConfig(tcp.DCTCP),
	}
}

func TestStartValidates(t *testing.T) {
	_, f := testFabric(t, 1)
	good := testConfig(t, f, 10)
	for name, mutate := range map[string]func(*Config){
		"nil cdf":       func(c *Config) { c.CDF = nil },
		"zero flows":    func(c *Config) { c.Flows = 0 },
		"zero load":     func(c *Config) { c.Load = 0 },
		"zero capacity": func(c *Config) { c.CapacityBps = 0 },
	} {
		bad := good
		mutate(&bad)
		if _, err := Start(f.Hosts, bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := Start(f.Hosts[:1], good); err == nil {
		t.Error("single host accepted")
	}
}

// TestWorkloadCompletes runs a short trace end to end: every flow must
// finish, carry a positive FCT, and appear in exactly one bucket.
func TestWorkloadCompletes(t *testing.T) {
	e, f := testFabric(t, 2)
	w, err := Start(f.Hosts, testConfig(t, f, 40))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(w.LastArrival().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := w.Completed(); got != 40 {
		t.Fatalf("completed %d/40 flows", got)
	}
	for i := range w.Flows {
		fl := &w.Flows[i]
		fct, done := fl.FCT()
		if !done || fct <= 0 {
			t.Fatalf("flow %d: done=%v fct=%v", i, done, fct)
		}
	}
	stats := w.FCTStats(10000, 500000)
	total := 0
	for _, b := range stats {
		total += b.Flows
		if b.Completed != b.Flows {
			t.Fatalf("bucket %s: %d/%d completed", b.Bucket, b.Completed, b.Flows)
		}
		if b.Completed > 0 && (b.P50Seconds <= 0 || b.P99Seconds < b.P50Seconds) {
			t.Fatalf("bucket %s: implausible percentiles %+v", b.Bucket, b)
		}
	}
	if total != 40 {
		t.Fatalf("buckets hold %d flows, want 40", total)
	}
	w.Cleanup()
	// After cleanup every endpoint table must be empty again.
	for _, h := range f.Hosts {
		pkt := h.Network().AllocPacket()
		pkt.Flow = 1
		pkt.Dst = h.ID()
		before := h.DroppedNoFlow()
		h.Receive(pkt)
		if h.DroppedNoFlow() != before+1 {
			t.Fatalf("host %s still owns flow 1 after Cleanup", h.Name())
		}
		break
	}
}

// TestDigestIsSeedDeterministic pins the reproducibility contract: same
// seed → identical digest, different seed → different trace.
func TestDigestIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) uint64 {
		e, f := testFabric(t, seed)
		w, err := Start(f.Hosts, testConfig(t, f, 30))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunUntil(w.LastArrival().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return w.Digest()
	}
	if run(5) != run(5) {
		t.Fatal("same seed produced different digests")
	}
	if run(5) == run(6) {
		t.Fatal("different seeds produced the same digest")
	}
}

func TestMatrices(t *testing.T) {
	_, f := testFabric(t, 3)
	n := len(f.Hosts)

	cfg := testConfig(t, f, 200)
	cfg.Matrix = Permutation
	w, err := Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each source always maps to the same destination, never itself.
	image := make(map[int]int)
	for i := range w.Flows {
		fl := &w.Flows[i]
		if fl.Src == fl.Dst {
			t.Fatal("permutation produced a self-flow")
		}
		if prev, seen := image[fl.Src]; seen && prev != fl.Dst {
			t.Fatalf("source %d maps to both %d and %d", fl.Src, prev, fl.Dst)
		}
		image[fl.Src] = fl.Dst
	}
	w.Cleanup()

	cfg = testConfig(t, f, 200)
	cfg.Matrix = Incast
	w, err = Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := w.Flows[0].Dst
	srcs := make(map[int]bool)
	for i := range w.Flows {
		fl := &w.Flows[i]
		if fl.Dst != agg || fl.Src == agg {
			t.Fatalf("incast flow %d: %d → %d (aggregator %d)", i, fl.Src, fl.Dst, agg)
		}
		srcs[fl.Src] = true
	}
	if len(srcs) != n-1 {
		t.Fatalf("incast drew %d distinct sources, want %d", len(srcs), n-1)
	}
	w.Cleanup()

	cfg = testConfig(t, f, 200)
	cfg.Matrix = Random
	w, err = Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dsts := make(map[int]bool)
	for i := range w.Flows {
		fl := &w.Flows[i]
		if fl.Src == fl.Dst {
			t.Fatal("random matrix produced a self-flow")
		}
		dsts[fl.Dst] = true
	}
	if len(dsts) < n/2 {
		t.Fatalf("random matrix used only %d destinations", len(dsts))
	}
	w.Cleanup()
}

func TestParseMatrix(t *testing.T) {
	for _, s := range []string{"random", "permutation", "incast"} {
		m, err := ParseMatrix(s)
		if err != nil || m.String() != s {
			t.Fatalf("round trip %q → %v, %v", s, m, err)
		}
	}
	if _, err := ParseMatrix("all-to-all"); err == nil {
		t.Fatal("unknown matrix accepted")
	}
}

// TestArrivalRateMatchesLoad checks the open-loop arrival process: over
// a long trace the mean interarrival must approximate
// CDF.Mean() / (Load · Capacity).
func TestArrivalRateMatchesLoad(t *testing.T) {
	_, f := testFabric(t, 4)
	cfg := testConfig(t, f, 5000)
	w, err := Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := w.LastArrival().Seconds()
	want := float64(cfg.Flows) * cfg.CDF.Mean() / (cfg.Load * cfg.CapacityBps)
	if span < 0.9*want || span > 1.1*want {
		t.Fatalf("trace spans %.3fs, want ≈ %.3fs for load %.2f", span, want, cfg.Load)
	}
	w.Cleanup()
}

func TestRecordFCT(t *testing.T) {
	e, f := testFabric(t, 9)
	w, err := Start(f.Hosts, testConfig(t, f, 30))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(w.LastArrival().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	w.RecordFCT(reg, 10000, 500000)
	snap := reg.Snapshot(e.Now().Seconds())
	found, observed := 0, uint64(0)
	for _, m := range snap.Metrics {
		if m.Name == "flowgen_fct_seconds" {
			found++
			if m.Hist == nil {
				t.Fatalf("FCT metric without histogram: %+v", m)
			}
			observed += m.Hist.Count
		}
	}
	if found != 3 {
		t.Fatalf("snapshot carries %d FCT histograms, want 3", found)
	}
	if observed != 30 {
		t.Fatalf("histograms hold %d observations, want 30", observed)
	}
	w.Cleanup()
}
