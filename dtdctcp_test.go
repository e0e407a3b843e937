package dtdctcp

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/runner"
)

// The facade is thin; these tests pin the re-exports together end to end
// so a refactor of internal packages cannot silently break the public API.

func TestFacadeDumbbell(t *testing.T) {
	res, err := RunDumbbell(DumbbellConfig{
		Protocol:   DTDCTCP(30, 50, 1.0/16),
		Flows:      10,
		Rate:       10 * Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Duration:   20 * time.Millisecond,
		Warmup:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.8 {
		t.Fatalf("utilization %v", res.Utilization)
	}
}

func TestFacadeSweepAndQuery(t *testing.T) {
	pts, err := SweepFlows(context.Background(), DumbbellConfig{
		Protocol:   DCTCP(40, 1.0/16),
		Rate:       10 * Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Duration:   10 * time.Millisecond,
		Warmup:     2 * time.Millisecond,
	}, []int{5}, 1)
	if err != nil || len(pts) != 1 {
		t.Fatalf("sweep: %v %v", pts, err)
	}
	q, err := RunIncast(DefaultTestbed(DCTCP(21, 1.0/16), 4), 2)
	if err != nil || q.Rounds != 2 {
		t.Fatalf("incast: %+v %v", q, err)
	}
	ct, err := RunCompletionTime(DefaultTestbed(Reno(), 4), 1)
	if err != nil || ct.MeanCompletion <= 0 {
		t.Fatalf("completion: %+v %v", ct, err)
	}
	// A worker-count sweep is runner.Map over testbed configs; each
	// point owns its engine, so 1 and 8 workers agree byte for byte.
	workers := []int{2, 3}
	sweep := func(par int) []*QueryResult {
		ws, err := runner.Map(context.Background(), len(workers), par,
			func(_ context.Context, i int) (*QueryResult, error) {
				return RunIncast(DefaultTestbed(RenoECN(21), workers[i]), 1)
			})
		if err != nil || len(ws) != len(workers) {
			t.Fatalf("worker sweep: %v %v", ws, err)
		}
		return ws
	}
	if one, eight := sweep(1), sweep(8); !reflect.DeepEqual(one, eight) {
		t.Fatalf("worker sweep differs between 1 and 8 workers:\n%+v\n%+v", one, eight)
	}
	if _, err := RunQuery(DefaultTestbed(Reno(), 2), 1024, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAnalysis(t *testing.T) {
	params := PaperAnalysisParams()
	v, err := AnalyzeStability(DCTCP(40, 1.0/16), params, 100)
	if err != nil {
		t.Fatal(err)
	}
	if v.Stable {
		t.Fatal("DCTCP at N=100 should oscillate in the analysis")
	}
	if v.Cycle.Amplitude <= 0 || v.Cycle.PeriodSeconds() <= 0 {
		t.Fatalf("cycle: %+v", v.Cycle)
	}
	n, err := CriticalFlows(DTDCTCP(30, 50, 1.0/16), params, 2, 120)
	if err != nil || n <= 2 {
		t.Fatalf("critical flows: %d %v", n, err)
	}
	fc, err := FluidConfig(DCTCP(40, 1.0/16), params, 10, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := SolveFluid(fc)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Queue.Len() == 0 {
		t.Fatal("fluid trajectory empty")
	}
}

func TestFacadeMarkerReplay(t *testing.T) {
	traj := TriangleTrajectory(60)
	if len(traj) != 121 {
		t.Fatalf("trajectory length %d", len(traj))
	}
	dec, err := ReplayMarker(DCTCP(40, 1.0/16), traj)
	if err != nil || len(dec) != len(traj) {
		t.Fatalf("replay: %d %v", len(dec), err)
	}
}

func TestFacadeMargins(t *testing.T) {
	params := PaperAnalysisParams()
	m, err := StabilityMargins(DCTCP(40, 1.0/16), params, 20)
	if err != nil {
		t.Fatal(err)
	}
	if m.GainMargin <= 1 {
		t.Fatalf("gain margin %v at N=20, want stable (>1)", m.GainMargin)
	}
	if _, err := StabilityMargins(Reno(), params, 20); err == nil {
		t.Fatal("Reno margins should fail")
	}
}

func TestFacadeExtensionPresets(t *testing.T) {
	if Cubic().Name != "cubic" {
		t.Fatal("cubic preset")
	}
	if D2TCP(21, 1.0/16).K != 21 {
		t.Fatal("d2tcp preset")
	}
	pie := RenoPIE(1*Gbps, 500*time.Microsecond)
	if pie.NewPolicy == nil || pie.NewPolicy(nil).Name() != "pie-ecn" {
		t.Fatal("pie preset")
	}
	codel := RenoCoDel(500*time.Microsecond, 5*time.Millisecond)
	if codel.NewPolicy == nil || codel.NewPolicy(nil).Name() != "codel-ecn" {
		t.Fatal("codel preset")
	}
}

func TestFacadeFabric(t *testing.T) {
	cdf, err := BuiltinFlowCDF("websearch-small")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuiltinFlowCDF("no-such-trace"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
	parsed, err := ParseFlowCDF(strings.NewReader("1460 0.5\n29200 1.0\n"))
	if err != nil || parsed.Points() != 2 {
		t.Fatalf("ParseFlowCDF: %v %v", parsed, err)
	}
	base := FabricConfig{
		Protocol:     DTDCTCP(15, 25, 1.0/16),
		Topology:     "leafspine",
		Leaves:       2,
		Spines:       2,
		HostsPerLeaf: 2,
		Rate:         Gbps,
		HopDelay:     10 * time.Microsecond,
		BufferPkts:   100,
		CDF:          cdf,
		Load:         0.4,
		Flows:        40,
		Matrix:       TrafficRandom,
		Seed:         3,
	}
	res, err := RunFabric(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Flows || len(res.Digest) != 16 {
		t.Fatalf("fabric result: %+v", res)
	}
	// A load sweep is runner.Map over fabric configs: byte-identical
	// digests at 1 and 8 workers, in load order.
	loads := []float64{0.2, 0.3}
	sweep := func(workers int) []*FabricResult {
		pts, err := runner.Map(context.Background(), len(loads), workers,
			func(_ context.Context, i int) (*FabricResult, error) {
				cfg := base
				cfg.Load = loads[i]
				return RunFabric(cfg)
			})
		if err != nil || len(pts) != len(loads) {
			t.Fatalf("load sweep: %v %v", pts, err)
		}
		return pts
	}
	one, eight := sweep(1), sweep(8)
	for i := range loads {
		if one[i].Load != loads[i] || one[i].Digest != eight[i].Digest {
			t.Fatalf("load %.1f: point %+v (1 worker) vs %+v (8 workers)", loads[i], one[i], eight[i])
		}
	}
}

// The zoo re-exports: the DCTCP+ slow-timer sender, the HULL
// phantom-queue variant, and the shared-buffer dynamic-threshold
// switch must all run through the facade.
func TestFacadeZoo(t *testing.T) {
	base := DumbbellConfig{
		Flows:      10,
		Rate:       10 * Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Duration:   20 * time.Millisecond,
		Warmup:     5 * time.Millisecond,
	}

	plus := base
	plus.Protocol = DCTCPPlus(40, 1.0/16)
	res, err := RunDumbbell(plus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.8 || res.Marks == 0 {
		t.Fatalf("dctcp+: util %v marks %d", res.Utilization, res.Marks)
	}

	hull := base
	hull.Protocol = HULL(40, 0.95, base.Rate, 1.0/16)
	hres, err := RunDumbbell(hull)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Marks == 0 {
		t.Fatalf("hull: no phantom marks")
	}
	if hres.QueueMeanPkts >= res.QueueMeanPkts {
		t.Fatalf("hull queue mean %.1f not below dctcp+ %.1f", hres.QueueMeanPkts, res.QueueMeanPkts)
	}

	pooled := base
	pooled.Protocol = DCTCP(40, 1.0/16)
	pooled.SharedBuffer = SharedBufferConfig{Alpha: 2}
	sres, err := RunDumbbell(pooled)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Utilization < 0.8 || sres.Marks == 0 {
		t.Fatalf("shared buffer: util %v marks %d", sres.Utilization, sres.Marks)
	}
}
