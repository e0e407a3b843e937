package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
)

// determinismConfig is a short dumbbell run with every stochastic element
// engaged: start jitter from the engine seed and a queue trace sampled
// densely enough that any divergence shows.
func determinismConfig(seed int64) DumbbellConfig {
	return DumbbellConfig{
		Protocol:         DTDCTCP(30, 50, 1.0/16),
		Flows:            8,
		Rate:             1 * netsim.Gbps,
		RTT:              100 * time.Microsecond,
		BufferPkts:       100,
		Duration:         20 * time.Millisecond,
		Warmup:           5 * time.Millisecond,
		QueueSampleEvery: 50 * time.Microsecond,
		AlphaSampleEvery: time.Millisecond,
		Seed:             seed,
	}
}

// fingerprint serializes every observable of a run bit-exactly: float64
// values go through math.Float64bits so two fingerprints are equal iff the
// runs were byte-identical, not merely close.
func fingerprint(t *testing.T, res *DumbbellResult) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "marks=%d drops=%d timeouts=%d\n", res.Marks, res.Drops, res.Timeouts)
	fmt.Fprintf(&b, "util=%x fair=%x alpha=%x\n",
		math.Float64bits(res.Utilization), math.Float64bits(res.Fairness), math.Float64bits(res.AlphaMean))
	fmt.Fprintf(&b, "queue mean=%x std=%x min=%x max=%x\n",
		math.Float64bits(res.QueueMeanPkts), math.Float64bits(res.QueueStdPkts),
		math.Float64bits(res.QueueMinPkts), math.Float64bits(res.QueueMaxPkts))
	for i, acked := range res.PerFlowAcked {
		fmt.Fprintf(&b, "flow[%d]=%d\n", i, acked)
	}
	if res.QueueSeries == nil {
		t.Fatal("queue series missing despite QueueSampleEvery")
	}
	for _, p := range res.QueueSeries.Points() {
		fmt.Fprintf(&b, "q %x %x\n", math.Float64bits(p.T), math.Float64bits(p.V))
	}
	if res.AlphaSeries != nil {
		for _, p := range res.AlphaSeries.Points() {
			fmt.Fprintf(&b, "a %x %x\n", math.Float64bits(p.T), math.Float64bits(p.V))
		}
	}
	return b.String()
}

// TestDeterminismSameSeed is the regression test behind the determinism
// contract: two runs with the same seed must produce byte-identical queue
// traces and flow statistics. Any ambient randomness — wall clock, global
// rand, map iteration leaking into event order — breaks this test.
func TestDeterminismSameSeed(t *testing.T) {
	first, err := RunDumbbell(determinismConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunDumbbell(determinismConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	fp1, fp2 := fingerprint(t, first), fingerprint(t, second)
	if fp1 != fp2 {
		t.Fatalf("same seed produced diverging runs:\nfirst:\n%s\nsecond:\n%s",
			diffHead(fp1, fp2), diffHead(fp2, fp1))
	}
}

// TestShardedDumbbellRepeatable reruns the seed-11 scenario on several
// engines at once. The name predates the removal of the single-run
// sharded engine; parallelism now lives at sweep level, so what must hold
// is that independent engines running concurrently share no state and
// each reproduces the serial run bit for bit.
func TestShardedDumbbellRepeatable(t *testing.T) {
	serial, err := RunDumbbell(determinismConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, serial)
	const runs = 3
	results := make([]*DumbbellResult, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunDumbbell(determinismConfig(11))
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got := fingerprint(t, res); got != want {
			t.Fatalf("concurrent run %d diverged from serial:\ngot:\n%s\nwant:\n%s",
				i, diffHead(got, want), diffHead(want, got))
		}
	}
}

// TestDeterminismSeedSensitivity guards the other direction: the seed must
// actually steer the run. If two different seeds fingerprint identically,
// the randomness is not flowing from the engine source at all.
func TestDeterminismSeedSensitivity(t *testing.T) {
	a, err := RunDumbbell(determinismConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDumbbell(determinismConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, a) == fingerprint(t, b) {
		t.Fatal("different seeds produced byte-identical runs; seed is not wired through")
	}
}

// zooDeterminismConfig is the combined protocol-and-switch-zoo
// determinism scenario: DCTCP+ senders (engine-seeded randomized pacing)
// draining through a shared-buffer switch (dynamic-threshold admission).
// It exercises the zoo's stochastic and stateful elements in one run.
func zooDeterminismConfig(seed int64) DumbbellConfig {
	cfg := determinismConfig(seed)
	cfg.Protocol = DCTCPPlus(30, 1.0/16)
	cfg.SharedBuffer = SharedBufferConfig{Alpha: 2}
	return cfg
}

// TestZooRepeatable reruns the zoo scenario: the pacing draws and the
// pool admission order must be a pure function of the seed.
func TestZooRepeatable(t *testing.T) {
	first, err := RunDumbbell(zooDeterminismConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunDumbbell(zooDeterminismConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	fp1, fp2 := fingerprint(t, first), fingerprint(t, second)
	if fp1 != fp2 {
		t.Fatalf("same zoo config produced diverging runs:\nfirst:\n%s\nsecond:\n%s",
			diffHead(fp1, fp2), diffHead(fp2, fp1))
	}
}

// TestZooSeedSensitivity guards the other direction for the zoo's
// stochastic element: the engine seed steers the DCTCP+ pacing draws, so
// two seeds must not fingerprint identically.
func TestZooSeedSensitivity(t *testing.T) {
	a, err := RunDumbbell(zooDeterminismConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDumbbell(zooDeterminismConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, a) == fingerprint(t, b) {
		t.Fatal("different seeds produced byte-identical zoo runs")
	}
}

// queryFingerprint serializes every observable of a query run
// bit-exactly (floats via %x), mirroring the dumbbell fingerprint.
func queryFingerprint(res *QueryResult) string {
	return fmt.Sprintf("rounds=%d goodput=%x mean=%d p95=%d max=%d std=%d timeouts=%d drops=%d missed=%d missrate=%x",
		res.Rounds, math.Float64bits(res.MeanGoodputBps),
		res.MeanCompletion, res.P95Completion, res.MaxCompletion, res.CompletionStdDev,
		res.Timeouts, res.Drops, res.MissedDeadlines, math.Float64bits(res.DeadlineMissRate))
}

// TestQueryRepeatable reruns one testbed configuration: the query
// runner's round bookkeeping must be a pure function of the seed.
func TestQueryRepeatable(t *testing.T) {
	cfg := DefaultTestbed(DCTCP(21, 1.0/16), 6)
	first, err := RunQuery(cfg, 32<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunQuery(cfg, 32<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := queryFingerprint(first), queryFingerprint(second); a != b {
		t.Fatalf("same config produced diverging query runs:\nfirst:  %s\nsecond: %s", a, b)
	}
}

// diffHead returns the first few lines of a that differ from b, keeping
// failure output readable.
func diffHead(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var out []string
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			out = append(out, fmt.Sprintf("line %d: %s", i+1, al[i]))
			if len(out) >= 5 {
				break
			}
		}
	}
	return strings.Join(out, "\n")
}
