package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
)

// hybridTestConfig is a small-but-nonvacuous scenario: enough background
// flows to build a standing queue, a handful of foreground flows, and a
// measured interval long enough to record FCTs.
func hybridTestConfig() HybridConfig {
	// Datacenter-scale RTO (the DCTCP testbed's 10 ms, not the 200 ms WAN
	// default): a foreground flow whose whole window is lost to a
	// transient burst must recover well inside the measured interval.
	proto := DCTCP(40, 1.0/16)
	proto.TCP.RTOMin = 10 * time.Millisecond
	proto.TCP.RTOInitial = 10 * time.Millisecond
	return HybridConfig{
		Protocol:         proto,
		BgFlows:          50,
		FgFlows:          4,
		FgBytes:          20_000,
		FgGap:            500 * time.Microsecond,
		Rate:             10 * netsim.Gbps,
		RTT:              100 * time.Microsecond,
		BufferPkts:       200,
		Duration:         20 * time.Millisecond,
		Warmup:           10 * time.Millisecond,
		QueueSampleEvery: 100 * time.Microsecond,
		Seed:             42,
	}
}

func TestRunHybridSmoke(t *testing.T) {
	res, err := RunHybrid(hybridTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "hybrid" {
		t.Fatalf("mode %q, want hybrid", res.Mode)
	}
	if res.CouplerTicks == 0 {
		t.Fatal("coupler never ticked")
	}
	if res.FluidFinal.Step == 0 {
		t.Fatal("fluid model never advanced")
	}
	if res.QueueMeanPkts <= 0 {
		t.Fatalf("background flows built no queue: mean %v", res.QueueMeanPkts)
	}
	if res.FgFCTCount == 0 {
		t.Fatal("no foreground FCTs recorded")
	}
	if res.FgFCTMeanSec <= 0 {
		t.Fatalf("non-positive mean FCT %v", res.FgFCTMeanSec)
	}
	if len(res.Digest) != 16 {
		t.Fatalf("digest %q is not a 64-bit hex word", res.Digest)
	}
	if res.QueueSeries == nil || res.QueueSeries.Len() == 0 {
		t.Fatal("queue series missing despite QueueSampleEvery")
	}
}

func TestRunHybridFullPacketReference(t *testing.T) {
	cfg := hybridTestConfig()
	cfg.BgFlows = 10 // keep the packet-level reference cheap
	cfg.FullPacket = true
	res, err := RunHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "packet" {
		t.Fatalf("mode %q, want packet", res.Mode)
	}
	if res.CouplerTicks != 0 || res.FluidFinal.Step != 0 {
		t.Fatal("packet mode ran the fluid coupler")
	}
	if res.QueueMeanPkts <= 0 {
		t.Fatalf("background senders built no queue: mean %v", res.QueueMeanPkts)
	}
	if res.FgFCTCount == 0 {
		t.Fatal("no foreground FCTs recorded")
	}
}

// TestHybridRepeatRunsAreByteIdentical is determinism satellite 1a: the
// same configuration twice gives the same digest.
func TestHybridRepeatRunsAreByteIdentical(t *testing.T) {
	a, err := RunHybrid(hybridTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHybrid(hybridTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("repeat run diverged: %s vs %s", a.Digest, b.Digest)
	}
}

// TestHybridShardsAreByteIdentical checks that hybrid runs executing
// concurrently, each on its own engine and fluid coupler, reproduce the
// serial digest exactly. The name predates the removal of the single-run
// sharded engine; concurrent independent runs are the parallelism that
// remains, and they must share no state.
func TestHybridShardsAreByteIdentical(t *testing.T) {
	serial, err := RunHybrid(hybridTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	const runs = 2
	results := make([]*HybridResult, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunHybrid(hybridTestConfig())
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if res.Digest != serial.Digest {
			t.Fatalf("concurrent run %d digest %s, serial %s", i, res.Digest, serial.Digest)
		}
	}
}

// TestHybridMetricsDoNotPerturb is determinism satellite 1c: the
// pull-based metrics registry changes no result.
func TestHybridMetricsDoNotPerturb(t *testing.T) {
	off, err := RunHybrid(hybridTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := hybridTestConfig()
	cfg.Metrics = true
	on, err := RunHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Digest != off.Digest {
		t.Fatalf("metrics perturbed the run: %s vs %s", on.Digest, off.Digest)
	}
	if on.Metrics == nil {
		t.Fatal("metrics requested but snapshot missing")
	}
	if off.Metrics != nil {
		t.Fatal("metrics not requested but snapshot present")
	}
}

func TestHybridConfigValidation(t *testing.T) {
	bad := []func(*HybridConfig){
		func(c *HybridConfig) { c.BgFlows = 0 },
		func(c *HybridConfig) { c.FgFlows = -1 },
		func(c *HybridConfig) { c.FgBytes = 0 },
		func(c *HybridConfig) { c.Rate = 0 },
		func(c *HybridConfig) { c.RTT = 0 },
		func(c *HybridConfig) { c.BufferPkts = 0 },
		func(c *HybridConfig) { c.Duration = 0 },
		func(c *HybridConfig) { c.Warmup = -time.Second },
		func(c *HybridConfig) { c.CouplingInterval = -time.Second },
		func(c *HybridConfig) { c.StepsPerTick = -1 },
		func(c *HybridConfig) { c.Protocol = Reno() }, // no marking law in hybrid mode
	}
	for i, mutate := range bad {
		cfg := hybridTestConfig()
		mutate(&cfg)
		if _, err := RunHybrid(cfg); err == nil {
			t.Errorf("case %d: RunHybrid accepted invalid config", i)
		}
	}
}

// FuzzHybridConfig is the robustness contract of the hybrid entry point:
// any input either fails validation with an error or runs to completion
// — never a panic, never NaN in the results.
func FuzzHybridConfig(f *testing.F) {
	f.Add(50, int64(100), 40, 2, 200)
	f.Add(1000, int64(100), 40, 0, 600)
	f.Add(1, int64(1), 1, 1, 1)
	f.Add(0, int64(100), 40, 2, 200)  // rejected: no background flows
	f.Add(50, int64(0), 40, 2, 200)   // rejected: zero RTT
	f.Add(50, int64(100), 0, 2, 200)  // rejected: no marking law
	f.Add(50, int64(-5), 40, -3, 200) // rejected: negative RTT and flows
	f.Add(7, int64(100000), 199, 7, 999)

	f.Fuzz(func(t *testing.T, bgFlows int, rttUs int64, k int, fgFlows, bufPkts int) {
		// Bound the work, not the validity: positive magnitudes are
		// folded into a cheap range, sign and zero pass through so the
		// rejection paths stay reachable.
		if bgFlows > 0 {
			bgFlows = 1 + bgFlows%100_000
		}
		if rttUs > 0 {
			rttUs = 1 + rttUs%100_000
		}
		if k > 0 {
			k = 1 + k%200
		}
		if fgFlows > 0 {
			fgFlows = 1 + fgFlows%8
		}
		if bufPkts > 0 {
			bufPkts = 1 + bufPkts%1000
		}
		cfg := HybridConfig{
			Protocol:   DCTCP(k, 1.0/16),
			BgFlows:    bgFlows,
			FgFlows:    fgFlows,
			FgBytes:    10_000,
			FgGap:      time.Millisecond,
			Rate:       100 * netsim.Mbps, // 100 Mbps keeps packet counts small
			RTT:        time.Duration(rttUs) * time.Microsecond,
			BufferPkts: bufPkts,
			Duration:   2 * time.Millisecond,
			Warmup:     time.Millisecond,
			Seed:       1,
		}
		res, err := RunHybrid(cfg)
		if err != nil {
			return // rejected inputs are fine; panics and NaNs are not
		}
		for name, v := range map[string]float64{
			"queue mean":  res.QueueMeanPkts,
			"queue std":   res.QueueStdPkts,
			"fluid W":     res.FluidFinal.W,
			"fluid alpha": res.FluidFinal.Alpha,
			"fluid q":     res.FluidFinal.Q,
			"fct mean":    res.FgFCTMeanSec,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s = %v for config %+v", name, v, cfg)
			}
		}
	})
}
