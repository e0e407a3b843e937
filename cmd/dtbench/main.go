// Command dtbench measures the simulator's hot paths and writes the
// numbers as machine-readable JSON, so performance regressions show up as
// diffs instead of anecdotes.
//
// It replays the repo's own benchmarks through testing.Benchmark — the
// event kernel (schedule/run, self-scheduling chains, timer rearm), the
// netsim forwarding path, a full dumbbell run with allocations-per-event
// accounting, and a sweep-scaling probe that times the same sweep at
// workers=1 and workers=GOMAXPROCS.
//
// Usage:
//
//	dtbench                        # print the snapshot to stdout
//	dtbench -o BENCH_baseline.json # merge into a baseline file: the
//	                               # previous Current moves to History
//	dtbench -label after-pool      # tag the snapshot
//	dtbench -quick                 # smaller dumbbell/sweep (CI smoke)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"dtdctcp"
	"dtdctcp/internal/aqm"
	"dtdctcp/internal/baseline"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// Metric is one benchmark result. GOMAXPROCS and NumCPU are recorded
// per metric — not just once per snapshot — so a number pasted out of
// context still carries the hardware it was measured on.
type Metric struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// EventsPerSec is derived for kernel benchmarks where one op is one
	// event (zero elsewhere).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
}

// DumbbellMetric profiles one full experiment run.
type DumbbellMetric struct {
	Flows          int     `json:"flows"`
	SimMillis      int64   `json:"sim_millis"`
	Events         uint64  `json:"events"`
	WallMillis     float64 `json:"wall_millis"`
	Mallocs        uint64  `json:"mallocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// OverheadMetric compares the same dumbbell run with the observability
// registry off and on, measured as interleaved A/B pairs on the CPU clock
// of the measuring thread: each pair runs both sides back to back so
// drift lands on both arms, and CPU time charges neither arm for work
// other processes do meanwhile. The reported delta is the median of the
// per-pair deltas, with a distribution-free confidence interval for that
// median. The event counts must match exactly, since pull-based
// instrumentation is required not to change the simulation.
type OverheadMetric struct {
	// Runs is the number of interleaved base/metrics pairs measured
	// (after one discarded warm-up pair).
	Runs   int    `json:"runs"`
	Events uint64 `json:"events"`
	// Clock is the clock the pairs were timed on: "thread-cpu", or "wall"
	// where no per-thread CPU clock is available.
	Clock             string  `json:"clock,omitempty"`
	BaseNsPerEvent    float64 `json:"base_ns_per_event"`
	MetricsNsPerEvent float64 `json:"metrics_ns_per_event"`
	// DeltaPercent is the median over pairs of (metrics − base) ÷ base ×
	// 100.
	DeltaPercent float64 `json:"delta_percent"`
	// CILowPercent and CIHighPercent bound DeltaPercent's population
	// median at overheadConfidence or more.
	CILowPercent  float64 `json:"ci_low_percent,omitempty"`
	CIHighPercent float64 `json:"ci_high_percent,omitempty"`
	// Verdict compares the interval with overheadBoundPercent: "pass"
	// when it lies wholly below, "fail" when wholly at or above, and
	// "inconclusive" when it still straddles the bound after
	// overheadRounds rounds of pairs.
	Verdict string `json:"verdict,omitempty"`
}

// The metrics layer's per-event tax is held below overheadBoundPercent.
// measureOverhead measures overheadPairs pairs per round and stops early
// once the confidence interval clears the bound, after at most
// overheadRounds rounds.
const (
	overheadBoundPercent = 8.0
	overheadConfidence   = 0.95
	overheadPairs        = 18
	overheadRounds       = 6
)

// SweepMetric times one sweep serially and in parallel.
type SweepMetric struct {
	Points         int     `json:"points"`
	Workers        int     `json:"workers"`
	SerialMillis   float64 `json:"serial_millis"`
	ParallelMillis float64 `json:"parallel_millis"`
	Speedup        float64 `json:"speedup"`
	// PerCoreEfficiency is Speedup ÷ min(Workers, NumCPU): 1.0 means the
	// extra cores were fully converted into throughput.
	PerCoreEfficiency float64 `json:"per_core_efficiency"`
}

// Snapshot is one complete dtbench run.
type Snapshot struct {
	Label      string          `json:"label"`
	Timestamp  string          `json:"timestamp"`
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Metrics    []Metric        `json:"metrics"`
	Dumbbell   *DumbbellMetric `json:"dumbbell,omitempty"`
	Overhead   *OverheadMetric `json:"overhead,omitempty"`
	Sweep      *SweepMetric    `json:"sweep,omitempty"`
}

const schema = "dtbench/v1"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dtbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dtbench", flag.ContinueOnError)
	var (
		out        = fs.String("o", "", "merge the snapshot into this JSON file (previous current moves to history)")
		label      = fs.String("label", "", "snapshot label (default: timestamp)")
		quick      = fs.Bool("quick", false, "smaller dumbbell and sweep for a fast smoke pass")
		metricsOut = fs.String("metrics", "", "write the instrumented dumbbell's observability snapshot as JSON to this path")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = fs.String("memprofile", "", "write a heap profile to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		stop, err := metrics.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}

	snap := measure(*quick)
	if *metricsOut != "" {
		cfg := dumbbellConfig(*quick)
		cfg.Metrics = true
		res, err := dtdctcp.RunDumbbell(cfg)
		if err != nil {
			return err
		}
		if err := metrics.WriteFile(*metricsOut, []metrics.Named{{Name: "dumbbell", Snapshot: res.Metrics}}); err != nil {
			return err
		}
	}
	if *memProfile != "" {
		defer metrics.WriteHeapProfile(*memProfile)
	}
	snap.Label = *label
	if snap.Label == "" {
		snap.Label = snap.Timestamp
	}

	if *out == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	return baseline.Merge(*out, schema, snap)
}

func measure(quick bool) *Snapshot {
	snap := &Snapshot{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	kernel := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"sim/ScheduleRun", benchScheduleRun},
		{"sim/EventChain", benchEventChain},
		{"sim/TimerReset", benchTimerReset},
		{"netsim/ForwardDropTail", benchForwardDropTail},
	}
	for _, k := range kernel {
		r := testing.Benchmark(k.fn)
		m := Metric{
			Name:        k.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
		}
		if m.NsPerOp > 0 {
			m.EventsPerSec = 1e9 / m.NsPerOp
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	snap.Dumbbell = measureDumbbell(quick)
	snap.Overhead = measureOverhead(quick)
	snap.Sweep = measureSweep(quick)
	return snap
}

// --- kernel benchmarks (mirrors of the _test.go benchmarks, which a
// command cannot import) ---

func benchScheduleRun(b *testing.B) {
	e := sim.NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+sim.Time(i%64), func() {})
		if i%1024 == 1023 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchEventChain(b *testing.B) {
	e := sim.NewEngine(1)
	remaining := b.N
	var step func()
	step = func() {
		remaining--
		if remaining > 0 {
			e.After(time.Microsecond, step)
		}
	}
	b.ReportAllocs()
	e.After(time.Microsecond, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchTimerReset(b *testing.B) {
	e := sim.NewEngine(1)
	tm := sim.NewTimer(e, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Millisecond)
		if i%4096 == 4095 {
			if err := e.RunUntil(e.Now()); err != nil {
				b.Fatal(err)
			}
		}
	}
	tm.Stop()
}

type benchSink struct{ n int }

func (s *benchSink) Deliver(*netsim.Packet) { s.n++ }

func benchForwardDropTail(b *testing.B) {
	e := sim.NewEngine(1)
	n := netsim.NewNetwork(e)
	src := n.AddHost("src")
	dst := n.AddHost("dst")
	sw := n.AddSwitch("sw")
	cfg := netsim.PortConfig{Rate: 100 * netsim.Gbps, Delay: time.Microsecond, Buffer: 1 << 24, Policy: aqm.NewDropTail()}
	if err := n.Connect(src, sw, cfg, cfg); err != nil {
		b.Fatal(err)
	}
	if err := n.Connect(dst, sw, cfg, cfg); err != nil {
		b.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		b.Fatal(err)
	}
	sink := &benchSink{}
	dst.Register(1, sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := n.AllocPacket()
		pkt.Flow = 1
		pkt.Dst = dst.ID()
		pkt.Size = 1500
		pkt.ECT = true
		src.Send(pkt)
		if i%256 == 255 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if sink.n == 0 {
		b.Fatal("nothing delivered")
	}
}

// dumbbellConfig is the paper-scale run shared by the dumbbell profile,
// the overhead pair, and the -metrics export.
func dumbbellConfig(quick bool) dtdctcp.DumbbellConfig {
	cfg := dtdctcp.DumbbellConfig{
		Protocol:   dtdctcp.DCTCP(40, 1.0/16),
		Flows:      40,
		Rate:       10 * dtdctcp.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Duration:   40 * time.Millisecond,
		Warmup:     10 * time.Millisecond,
		Seed:       1,
	}
	if quick {
		cfg.Flows = 10
		cfg.Duration = 10 * time.Millisecond
		cfg.Warmup = 2 * time.Millisecond
	}
	return cfg
}

// measureDumbbell runs one paper-scale dumbbell and reports the malloc
// count per simulated event.
func measureDumbbell(quick bool) *DumbbellMetric {
	cfg := dumbbellConfig(quick)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := dtdctcp.RunDumbbell(cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		// Benchmarks must not mask simulator breakage.
		panic(err)
	}
	m := &DumbbellMetric{
		Flows:      cfg.Flows,
		SimMillis:  (cfg.Duration + cfg.Warmup).Milliseconds(),
		Events:     res.Events,
		WallMillis: float64(wall.Microseconds()) / 1e3,
		Mallocs:    after.Mallocs - before.Mallocs,
	}
	if res.Events > 0 {
		m.AllocsPerEvent = float64(m.Mallocs) / float64(res.Events)
		m.EventsPerSec = float64(res.Events) / wall.Seconds()
	}
	return m
}

// measureOverhead times the identical dumbbell with metrics off and on
// as interleaved A/B pairs and reports the median per-pair delta with its
// confidence interval. The pairs run on one locked OS thread and are
// timed by that thread's CPU clock, so a concurrent process (another test
// package under go test ./...) slows neither arm. Each pair still runs
// both sides back to back, alternating the in-pair order to cancel
// monotonic drift. While the interval straddles overheadBoundPercent it
// measures another round of pairs, up to overheadRounds. Event counts
// from both sides must match — pull-based instrumentation may not alter
// the simulation — and a mismatch panics rather than reporting a
// meaningless comparison.
func measureOverhead(quick bool) *OverheadMetric {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cfg := dumbbellConfig(quick)
	clock, clockName := overheadClock()
	timeRun := func(withMetrics bool) (ns float64, events uint64) {
		c := cfg
		c.Metrics = withMetrics
		start := clock()
		res, err := dtdctcp.RunDumbbell(c)
		used := clock() - start
		if err != nil {
			panic(err)
		}
		return float64(used.Nanoseconds()) / float64(res.Events), res.Events
	}
	// One discarded warm-up pair lets the allocator and caches settle.
	timeRun(false)
	timeRun(true)
	var baseNs, deltaNs, deltaPct []float64
	var baseEvents, metEvents uint64
	m := &OverheadMetric{Clock: clockName, Verdict: "inconclusive"}
	for round := 0; round < overheadRounds && m.Verdict == "inconclusive"; round++ {
		for i := 0; i < overheadPairs; i++ {
			// One run per arm: for a fixed budget of runs, more single
			// pairs narrow the median's interval faster than fewer pairs
			// of min-of-two arms. The order alternates between pairs.
			var b, met float64
			if len(deltaNs)%2 == 0 {
				b, baseEvents = timeRun(false)
				met, metEvents = timeRun(true)
			} else {
				met, metEvents = timeRun(true)
				b, baseEvents = timeRun(false)
			}
			if baseEvents != metEvents {
				panic(fmt.Sprintf("dtbench: metrics changed the run: %d events without vs %d with", baseEvents, metEvents))
			}
			baseNs = append(baseNs, b)
			deltaNs = append(deltaNs, met-b)
			deltaPct = append(deltaPct, (met-b)/b*100)
		}
		m.CILowPercent, m.CIHighPercent = medianCI(deltaPct, overheadConfidence)
		switch {
		case m.CIHighPercent < overheadBoundPercent:
			m.Verdict = "pass"
		case m.CILowPercent >= overheadBoundPercent:
			m.Verdict = "fail"
		}
	}
	m.Runs = len(deltaPct)
	m.Events = baseEvents
	m.BaseNsPerEvent = median(baseNs)
	m.MetricsNsPerEvent = m.BaseNsPerEvent + median(deltaNs)
	m.DeltaPercent = median(deltaPct)
	return m
}

// overheadClock returns the clock measureOverhead times its pairs on, and
// its name: the measuring thread's CPU clock, or elapsed wall time where
// the platform offers no such clock.
func overheadClock() (func() time.Duration, string) {
	if _, err := threadCPU(); err == nil {
		return func() time.Duration {
			d, _ := threadCPU() // the probe above succeeded; the clock does not fail later
			return d
		}, "thread-cpu"
	}
	start := time.Now()
	return func() time.Duration { return time.Since(start) }, "wall"
}

// medianCI returns a distribution-free confidence interval for the
// population median of xs at level conf or more: the order statistics
// x(k) and x(n+1−k), for the largest k with P(Binomial(n, ½) ≤ k−1) ≤
// (1 − conf)/2. With too few samples for any such k it returns the
// sample range.
func medianCI(xs []float64, conf float64) (lo, hi float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	k := 1
	cdf, pmf := 0.0, math.Pow(0.5, float64(n)) // P(B ≤ j−1), P(B = j)
	for j := 0; j < n/2; j++ {
		if cdf += pmf; cdf > (1-conf)/2 {
			break
		}
		k = j + 1
		pmf *= float64(n-j) / float64(j+1)
	}
	return s[k-1], s[n-k]
}

// median returns the middle value of xs (mean of the middle two for even
// lengths) without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// measureSweep times the same flow sweep at workers=1 and
// workers=GOMAXPROCS and reports the per-core scaling efficiency.
func measureSweep(quick bool) *SweepMetric {
	base := dtdctcp.DumbbellConfig{
		Protocol:   dtdctcp.DCTCP(40, 1.0/16),
		Rate:       10 * dtdctcp.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Duration:   20 * time.Millisecond,
		Warmup:     5 * time.Millisecond,
		Seed:       1,
	}
	flows := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
	if quick {
		base.Duration = 5 * time.Millisecond
		base.Warmup = time.Millisecond
		flows = flows[:4]
	}
	workers := runtime.GOMAXPROCS(0)
	ctx := context.Background()

	start := time.Now()
	if _, err := dtdctcp.SweepFlowsParallel(ctx, base, flows, 1); err != nil {
		panic(err)
	}
	serial := time.Since(start)

	start = time.Now()
	if _, err := dtdctcp.SweepFlowsParallel(ctx, base, flows, workers); err != nil {
		panic(err)
	}
	parallel := time.Since(start)

	m := &SweepMetric{
		Points:         len(flows),
		Workers:        workers,
		SerialMillis:   float64(serial.Microseconds()) / 1e3,
		ParallelMillis: float64(parallel.Microseconds()) / 1e3,
	}
	if parallel > 0 {
		m.Speedup = serial.Seconds() / parallel.Seconds()
	}
	cores := workers
	if n := runtime.NumCPU(); n < cores {
		cores = n
	}
	if cores > 0 {
		m.PerCoreEfficiency = m.Speedup / float64(cores)
	}
	return m
}
