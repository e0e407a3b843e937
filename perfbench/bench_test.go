package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dtdctcp"
	"dtdctcp/internal/netsim"
)

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricSpecs pins the metric vocabulary: legal, unique names and
// units, the contract's limits, and per-layer targets that name a real
// end-to-end metric and workload.
func TestMetricSpecs(t *testing.T) {
	if len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, at most 16 allowed", len(endToEnd))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	seen := map[string]bool{}
	isEndToEnd := map[string]bool{}
	for _, m := range endToEnd {
		isEndToEnd[m.name] = true
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !namePattern.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
		if !unitPattern.MatchString(m.unit) {
			t.Errorf("metric %s has unit %q", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
	}
	for _, m := range perLayer {
		if !isEndToEnd[m.target] {
			t.Errorf("per-layer %s targets %q, not an end-to-end metric", m.name, m.target)
		}
		if _, err := lookupWorkload(m.on); err != nil {
			t.Errorf("per-layer %s: %v", m.name, err)
		}
	}
	if !isEndToEnd["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program measures.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var decl struct {
		Workloads []spec `json:"workloads"`
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []spec, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, program %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, g.Name, g.Bound != nil)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	compare("end_to_end", decl.EndToEnd, endToEnd, true)
	compare("per_layer", decl.PerLayer, perLayer, false)
}

// fakeWorkload returns a workload whose passes report the given digests
// in turn (the last one repeating).
func fakeWorkload(digests ...string) *benchWorkload {
	i := 0
	return &benchWorkload{
		name: "fake",
		pass: func(int64, bool) (*outcome, error) {
			d := digests[min(i, len(digests)-1)]
			i++
			return &outcome{digest: d, events: 1}, nil
		},
	}
}

func TestRepeatedDigestPasses(t *testing.T) {
	b := &bench{w: fakeWorkload("a"), metrics: map[string]metric{}}
	if _, _, err := b.passes(0, false, nil); err != nil {
		t.Fatal(err)
	}
	if b.attempted != 1+minPasses || b.failed != 0 {
		t.Errorf("attempted %d, failed %d; want %d, 0", b.attempted, b.failed, 1+minPasses)
	}
}

func TestTamperedDigestFails(t *testing.T) {
	b := &bench{w: fakeWorkload("a", "a", "tampered", "a"), metrics: map[string]metric{}}
	if _, _, err := b.passes(0, false, nil); err != nil {
		t.Fatal(err)
	}
	if b.failed != 1 {
		t.Errorf("failed %d of %d operations, want exactly the tampered pass", b.failed, b.attempted)
	}
}

func TestZeroEventPassFails(t *testing.T) {
	b := &bench{w: fakeWorkload("a"), metrics: map[string]metric{}}
	b.checkPass(&outcome{digest: "a"}, nil)
	if b.failed != 1 {
		t.Errorf("a pass with no events was not failed")
	}
}

// TestZeroTransferHybridFails checks that a hybrid run whose foreground
// completes nothing in the measured window — the regime 1000 background
// flows push the model into — is a failed operation, in either mode.
func TestZeroTransferHybridFails(t *testing.T) {
	for _, mode := range []string{"hybrid", "packet"} {
		o := hybridOutcome(&dtdctcp.HybridResult{Mode: mode, Events: 1000, Digest: "d", FgTransfers: 3})
		b := &bench{w: hybridWorkload, metrics: map[string]metric{}}
		b.checkPass(o, nil)
		if b.failed != 1 {
			t.Errorf("%s mode with no measured foreground transfer was not failed", mode)
		}
	}
	o := hybridOutcome(&dtdctcp.HybridResult{Mode: "hybrid", Events: 1000, Digest: "d", FgFCTCount: 1})
	if o.problem != nil {
		t.Errorf("one completed transfer reported as %v", o.problem)
	}
}

func TestFabricCompletesEveryFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fabric workload")
	}
	o, err := fabricWorkload.pass(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if o.problem != nil || o.completed != fabricFlows {
		t.Fatalf("fabric completed %d of %d flows: %v", o.completed, fabricFlows, o.problem)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dtdctcp/internal/sim.(*Engine).run":                "sim",
		"dtdctcp/internal/netsim.(*Port).Send":              "netsim",
		"dtdctcp/internal/core.RunDumbbell.func1":           "core",
		"dtdctcp/internal/stats.Quantile":                   "stats",
		"dtdctcp/internal/lint.Run":                         "",
		"dtdctcp.RunDumbbell":                               "",
		"runtime.mallocgc":                                  "",
		"dtdctcp/internal/fluid.(*Stepper).Step":            "fluid",
		"dtdctcp/internal/hybrid.(*Coupler).Start.func1":    "hybrid",
		"dtdctcp/internal/workload.StartLongLived":          "workload",
		"dtdctcp/internal/metrics.(*Histogram).Observe":     "metrics",
		"dtdctcp/internal/flowgen.(*CDF).Sample":            "flowgen",
		"dtdctcp/internal/topo.FatTree":                     "topo",
		"dtdctcp/internal/aqm.(*DoubleThreshold).OnArrival": "aqm",
		"dtdctcp/internal/tcp.(*Sender).Deliver":            "tcp",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestSelfFracSumsToOne profiles real simulator work and checks that the
// module shares partition the samples.
func TestSelfFracSumsToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, _, err := scheduleRun(deepDepth, 100_000); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
		if _, _, err := fluidSteps(); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, gc, err := attribute([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range modules {
		v, ok := shares[m]
		if !ok {
			t.Errorf("no share for module %s", m)
		}
		sum += v
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("self_frac values sum to %v, want 1 ± 0.01", sum)
	}
	if shares["sim"] == 0 || shares["fluid"] == 0 {
		t.Errorf("profile of heap and fluid work charged sim %v, fluid %v", shares["sim"], shares["fluid"])
	}
	if gc < 0 || gc > 1 {
		t.Errorf("gc share %v outside [0, 1]", gc)
	}
}

func TestTCPTapCountsRetransmissions(t *testing.T) {
	tap := newTCPTap()
	data := func(flow netsim.FlowID, seq int64) *netsim.Packet {
		return &netsim.Packet{Flow: flow, Seq: seq, PayloadLen: 1000}
	}
	for _, p := range []*netsim.Packet{
		data(1, 0), data(1, 1000), data(2, 0), data(1, 2000),
		data(1, 1000), // retransmission
		{Flow: 1, IsAck: true},
		data(1, 3000), data(2, 0), // retransmission on flow 2
	} {
		tap.PacketEnqueued(0, p, 0, false)
	}
	if tap.acks != 1 || tap.retransmits != 2 {
		t.Errorf("acks %d, retransmits %d; want 1, 2", tap.acks, tap.retransmits)
	}
}

func TestStatusField(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  812 kB\nVmHWM:\t   7304 kB\n"
	if v, err := statusField(status, "VmHWM"); err != nil || v != 7304 {
		t.Errorf("VmHWM = %v, %v", v, err)
	}
	if _, err := statusField(status, "VmRSS"); err == nil {
		t.Error("missing field parsed")
	}
}

// TestTracedRunReportsEveryLayerMetric runs the traced mode on the hybrid
// workload (the one that exercises the reference model) with a short
// budget and checks that every per-layer metric is reported and every
// check passes.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hybrid workload and its packet reference")
	}
	b := &bench{w: hybridWorkload, seed: 1, budget: time.Second, metrics: map[string]metric{}, log: io.Discard}
	if err := b.layers(); err != nil {
		t.Fatal(err)
	}
	if err := b.complete(perLayer); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Errorf("checks failed: %s", strings.Join(b.problems, "; "))
	}
	if v := b.metrics["hybrid.queue_err"].Value; v <= 0 {
		t.Errorf("hybrid.queue_err = %v; the hybrid model disagrees with the packet reference", v)
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload accepted")
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %q", stdout.String())
	}
}
