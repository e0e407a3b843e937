package core

import (
	"context"
	"testing"
	"time"

	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/netsim"
)

func fabricConfig(t *testing.T) FabricConfig {
	t.Helper()
	cdf, err := flowgen.BuiltinCDF(flowgen.WebSearchSmall)
	if err != nil {
		t.Fatal(err)
	}
	return FabricConfig{
		Protocol:     DCTCP(20, 1.0/16),
		Topology:     "leafspine",
		Leaves:       2,
		Spines:       2,
		HostsPerLeaf: 2,
		Rate:         netsim.Gbps,
		HopDelay:     10 * time.Microsecond,
		BufferPkts:   100,
		CDF:          cdf,
		Load:         0.4,
		Flows:        60,
		Seed:         42,
	}
}

func TestRunFabricLeafSpine(t *testing.T) {
	res, err := RunFabric(fabricConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Flows {
		t.Fatalf("completed %d/%d flows", res.Completed, res.Flows)
	}
	if res.Topology != "leafspine" || res.Hosts != 4 {
		t.Fatalf("echoed %s/%d hosts", res.Topology, res.Hosts)
	}
	if len(res.Digest) != 16 {
		t.Fatalf("digest %q is not a 64-bit hex word", res.Digest)
	}
	if len(res.FCT) != 3 {
		t.Fatalf("want 3 FCT buckets, got %d", len(res.FCT))
	}
	total := 0
	for _, b := range res.FCT {
		total += b.Completed
		if b.Completed > 0 && b.P99Seconds < b.P50Seconds {
			t.Fatalf("bucket %s: p99 %v < p50 %v", b.Bucket, b.P99Seconds, b.P50Seconds)
		}
	}
	if total != res.Flows {
		t.Fatalf("buckets hold %d completions, want %d", total, res.Flows)
	}
	// Every queue observation point must have fired, and the workload is
	// heavy enough to queue at least sometimes.
	if res.CoreQueue.Samples == 0 || res.AggQueue.Samples == 0 {
		t.Fatalf("queue monitors silent: core %d, agg %d", res.CoreQueue.Samples, res.AggQueue.Samples)
	}
	if res.Events == 0 {
		t.Fatal("no events processed")
	}
}

func TestRunFabricFatTreeWithMetrics(t *testing.T) {
	cfg := fabricConfig(t)
	cfg.Topology = "fattree"
	cfg.K = 4
	cfg.Metrics = true
	res, err := RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 16 {
		t.Fatalf("k=4 fat-tree has %d hosts, want 16", res.Hosts)
	}
	if res.Completed != res.Flows {
		t.Fatalf("completed %d/%d", res.Completed, res.Flows)
	}
	if res.Metrics == nil {
		t.Fatal("metrics requested but snapshot missing")
	}
	var fct, queue int
	for _, m := range res.Metrics.Metrics {
		switch m.Name {
		case "flowgen_fct_seconds":
			fct++
		case "fabric_queue_pkts":
			queue++
		}
	}
	if fct != 3 || queue != 2 {
		t.Fatalf("snapshot carries %d FCT and %d queue histograms, want 3 and 2", fct, queue)
	}
}

func TestRunFabricValidates(t *testing.T) {
	good := fabricConfig(t)
	for name, mutate := range map[string]func(*FabricConfig){
		"bad topology": func(c *FabricConfig) { c.Topology = "torus" },
		"nil cdf":      func(c *FabricConfig) { c.CDF = nil },
		"zero load":    func(c *FabricConfig) { c.Load = 0 },
		"zero flows":   func(c *FabricConfig) { c.Flows = 0 },
		"zero rate":    func(c *FabricConfig) { c.Rate = 0 },
		"zero delay":   func(c *FabricConfig) { c.HopDelay = 0 },
		"zero buffer":  func(c *FabricConfig) { c.BufferPkts = 0 },
		"odd k": func(c *FabricConfig) {
			c.Topology = "fattree"
			c.K = 3
		},
	} {
		bad := good
		mutate(&bad)
		if _, err := RunFabric(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestFabricDeterminism is the acceptance property: the same seed and
// topology produce byte-identical digests and aggregates on repeat runs.
func TestFabricDeterminism(t *testing.T) {
	base := fabricConfig(t)
	serial, err := RunFabric(base)
	if err != nil {
		t.Fatal(err)
	}

	repeat, err := RunFabric(base)
	if err != nil {
		t.Fatal(err)
	}
	if repeat.Digest != serial.Digest {
		t.Fatalf("repeat run diverged: %s vs %s", repeat.Digest, serial.Digest)
	}
	if repeat.Marks != serial.Marks || repeat.Drops != serial.Drops ||
		repeat.Completed != serial.Completed || repeat.Timeouts != serial.Timeouts {
		t.Fatalf("repeat aggregates diverged: %+v vs %+v", repeat, serial)
	}
	if repeat.CoreQueue != serial.CoreQueue || repeat.AggQueue != serial.AggQueue {
		t.Fatal("repeat queue summaries diverged")
	}
}

// TestSweepLoadsParallelWorkers pins worker-count invariance: each point
// owns a private engine, so 1 worker and 4 workers agree byte for byte.
func TestSweepLoadsParallelWorkers(t *testing.T) {
	base := fabricConfig(t)
	base.Flows = 30
	loads := []float64{0.2, 0.5}
	one, err := SweepLoadsParallel(context.Background(), base, loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := SweepLoadsParallel(context.Background(), base, loads, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i].Result.Digest != many[i].Result.Digest {
			t.Fatalf("load %.2f: workers 1 vs 4 diverged", loads[i])
		}
		if one[i].Load != loads[i] {
			t.Fatalf("point %d out of order", i)
		}
	}
}
