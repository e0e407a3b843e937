// Command perfbench is the simulator's benchmark. It runs one named
// workload through the public facade (dtdctcp.RunDumbbell, RunFabric,
// RunHybrid) on the serial engine, checks the outputs, and prints its
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 0.71, "unit": "s"}, ...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics instead. The line before it
// records provenance: code revision, Go version, CPUs, seed and a fixed
// calibration loop's time, so results from different machines compare as
// ratios. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload fabric --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: dumbbell, fabric or hybrid")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measuring time in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics, 0 end-to-end metrics")
	rssChild := fs.Bool("rss-child", false, "run one pass and print its digest and peak RSS (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *rssChild {
		if err := rssChildPass(w, *seed, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		metrics: map[string]metric{}, log: stderr}
	want := endToEnd
	if *traced == 1 {
		want = perLayer
		err = b.layers()
	} else {
		err = b.endToEnd()
	}
	if err == nil {
		err = b.complete(want)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(w.name, *seed, *traced)})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", prov, res)
	return 0
}

// bench is one run of one workload: its operations, checks and metrics.
type bench struct {
	w      *benchWorkload
	seed   int64
	budget time.Duration
	log    io.Writer

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	verify            time.Duration // host time spent in output checks
}

// check counts one operation, failed when err is non-nil.
func (b *bench) check(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, err.Error())
	}
}

// checkPass applies the checks every facade call must pass: the
// workload's own output check, a positive event count, and the digest
// of the run's first pass.
func (b *bench) checkPass(o, first *outcome) {
	start := time.Now()
	err := o.problem
	switch {
	case err != nil:
	case o.events == 0:
		err = fmt.Errorf("%s: no events executed", b.w.name)
	case first != nil && o.digest != first.digest:
		err = fmt.Errorf("%s: digest %s differs from the first pass's %s", b.w.name, o.digest, first.digest)
	}
	b.check(err)
	b.verify += time.Since(start)
}

// logSpread reports the distribution behind a median on standard error.
func (b *bench) logSpread(name string, xs []float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	fmt.Fprintf(b.log, "perfbench: %s over %d samples: min %.6g, q1 %.6g, median %.6g, q3 %.6g, max %.6g\n",
		name, len(s), s[0], q(0.25), median(s), q(0.75), s[len(s)-1])
}

func (b *bench) set(name string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// complete verifies that the run reports exactly the metrics of its mode,
// each a finite number.
func (b *bench) complete(want []metricSpec) error {
	for _, m := range want {
		v, ok := b.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v.Value)
		}
	}
	if len(b.metrics) != len(want) {
		return fmt.Errorf("measured %d metrics, the mode declares %d", len(b.metrics), len(want))
	}
	return nil
}

// endToEnd measures the untraced metrics: set-up time, facade wall time,
// and the peak RSS of a process running one pass. The workload's
// reference model, when it has one, runs once, untimed, for its output
// check.
func (b *bench) endToEnd() error {
	setups, err := b.timeSetups(b.budget/10, 5)
	if err != nil {
		return err
	}
	b.set("setup_s", median(setups))
	b.logSpread("setup_s", setups)

	walls, first, err := b.passes(b.budget, false, nil)
	if err != nil {
		return err
	}
	b.set("wall_s", median(walls))
	b.logSpread("wall_s", walls)

	rss, digest, err := childPeakRSS(b.w.name, b.seed)
	if err != nil {
		return err
	}
	b.checkPass(&outcome{digest: digest, events: first.events}, first)
	b.set("peak_rss_mb", rss)

	if b.w.reference != nil {
		ref, err := b.w.reference(b.seed)
		if err != nil {
			return err
		}
		b.checkPass(ref, nil)
	}
	return nil
}

// timeSetups builds the workload's replica until the budget is spent (and
// at least min times), collecting each build's host seconds. Every build
// starts from a collected heap.
func (b *bench) timeSetups(budget time.Duration, min int) ([]float64, error) {
	var out []float64
	deadline := time.Now().Add(budget)
	for len(out) < min || time.Now().Before(deadline) {
		runtime.GC()
		start := time.Now()
		if _, err := b.w.build(b.seed); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// minPasses is the fewest timed passes a run makes, however short its
// budget.
const minPasses = 3

// passes runs one untimed warm-up pass, then timed passes until the
// budget is spent, each from a collected heap. around, when set, wraps
// every timed pass (the traced run starts and stops profiling there).
// It returns the passes' host seconds and the warm-up outcome, which
// every later pass must reproduce.
func (b *bench) passes(budget time.Duration, withMetrics bool, around func(pass func()) error) ([]float64, *outcome, error) {
	first, err := b.w.pass(b.seed, withMetrics)
	if err != nil {
		return nil, nil, err
	}
	b.checkPass(first, nil)
	var walls []float64
	deadline := time.Now().Add(budget)
	for len(walls) < minPasses || time.Now().Before(deadline) {
		runtime.GC()
		var o *outcome
		var wall time.Duration
		pass := func() {
			start := time.Now()
			o, err = b.w.pass(b.seed, withMetrics)
			wall = time.Since(start)
		}
		if around != nil {
			if aerr := around(pass); aerr != nil {
				return nil, nil, aerr
			}
		} else {
			pass()
		}
		if err != nil {
			return nil, nil, err
		}
		b.checkPass(o, first)
		walls = append(walls, wall.Seconds())
	}
	return walls, first, nil
}

// rssChildPass is the child side of childPeakRSS: one facade pass, then
// its digest and the process's peak resident set on one JSON line.
func rssChildPass(w *benchWorkload, seed int64, stdout io.Writer) error {
	o, err := w.pass(seed, false)
	if err != nil {
		return err
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	kb, err := statusField(string(status), "VmHWM")
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(map[string]any{"digest": o.digest, "vmhwm_kb": kb})
}

// statusField reads a "Name: <n> kB" line of /proc/<pid>/status.
func statusField(status, name string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, name+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			break
		}
		return strconv.ParseFloat(f[0], 64)
	}
	return 0, fmt.Errorf("no %s line in process status", name)
}

// childPeakRSS runs one pass of the workload in a fresh process and
// returns its peak resident set in MB and its digest.
func childPeakRSS(name string, seed int64) (float64, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	cmd := exec.Command(exe, "--rss-child", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, "", fmt.Errorf("rss child: %w", err)
	}
	var child struct {
		Digest  string  `json:"digest"`
		VmHWMKB float64 `json:"vmhwm_kb"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &child); err != nil {
		return 0, "", fmt.Errorf("rss child output: %w", err)
	}
	return child.VmHWMKB / 1024, child.Digest, nil
}

// layers measures the per-layer metrics: layer drivers, then untraced
// and traced facade passes (the traced ones with Metrics on and a CPU
// profile), then the replica, and the reference model when the workload
// has one.
func (b *bench) layers() error {
	ns, err := runLayerDrivers()
	if err != nil {
		return err
	}
	for k, v := range ns {
		b.set(k, v)
	}
	perFlow, err := flowgenBytesPerFlow(b.seed)
	if err != nil {
		return err
	}
	b.set("flowgen.bytes_per_flow", perFlow)

	// Untraced passes: the baseline of the tracing overhead, and the
	// allocation rate of the program as users run it.
	var mallocs uint64
	count := func(pass func()) error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		return nil
	}
	plain, first, err := b.passes(b.budget*2/5, false, count)
	if err != nil {
		return err
	}
	events := first.events * uint64(len(plain))
	b.set("runtime.allocs_per_event", float64(mallocs)/float64(events))

	// Traced passes: Metrics on, one CPU profile per pass.
	var profiles [][]byte
	profiled := func(pass func()) error {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
		pass()
		pprof.StopCPUProfile()
		profiles = append(profiles, buf.Bytes())
		return nil
	}
	tracedWalls, tracedFirst, err := b.passes(b.budget*2/5, true, profiled)
	if err != nil {
		return err
	}
	start := time.Now()
	var differ error
	if tracedFirst.digest != first.digest {
		differ = fmt.Errorf("%s: metrics-on digest %s, metrics-off %s", b.w.name, tracedFirst.digest, first.digest)
	}
	b.check(differ)
	b.verify += time.Since(start)
	b.set("trace.overhead_frac", median(tracedWalls)/median(plain)-1)
	shares, gcFrac, err := attribute(profiles)
	if err != nil {
		return err
	}
	for m, v := range shares {
		b.set(m+".self_frac", v)
	}
	b.set("runtime.gc_frac", gcFrac)
	if err := b.engineCounts(tracedFirst); err != nil {
		return err
	}
	b.set("tcp.rtos", float64(tracedFirst.rtos))
	b.set("fluid.steps", float64(tracedFirst.fluidSteps))
	b.set("hybrid.ticks", float64(tracedFirst.couplerTicks))
	b.set("flowgen.completed", float64(tracedFirst.completed))

	if err := b.replica(first); err != nil {
		return err
	}
	if err := b.reference(first); err != nil {
		return err
	}
	b.set("span.verify_s", b.verify.Seconds())
	return nil
}

// engineCounts reads the event core's counters from the traced pass's
// metrics snapshot.
func (b *bench) engineCounts(o *outcome) error {
	if o.snap == nil {
		return fmt.Errorf("%s: traced pass returned no metrics snapshot", b.w.name)
	}
	executed := float64(o.snap.CounterValue("sim_events_executed_total"))
	scheduled := float64(o.snap.CounterValue("sim_events_scheduled_total"))
	if scheduled == 0 {
		return fmt.Errorf("%s: snapshot counts no scheduled events", b.w.name)
	}
	b.set("sim.events", executed)
	b.set("sim.useful_ratio", executed/scheduled)
	b.set("sim.pending_max", o.snap.GaugeValue("sim_events_pending_max"))
	b.set("sim.free_hit_rate", o.snap.GaugeValue("sim_free_list_hit_rate"))
	return nil
}

// replica builds the workload outside the facade, taps every host
// uplink, runs it, checks that it reproduced the facade's result, and
// reads the switch and transport counters the facade does not report.
func (b *bench) replica(o *outcome) error {
	setups, err := b.timeSetups(0, 5)
	if err != nil {
		return err
	}
	b.set("span.setup_s", median(setups))
	s, err := b.w.build(b.seed)
	if err != nil {
		return err
	}
	tap := newTCPTap()
	for _, h := range s.net.Hosts() {
		h.Uplink().SetTracer(tap)
	}
	runtime.GC()
	start := time.Now()
	if err := s.engine.RunUntil(s.end); err != nil {
		return err
	}
	b.set("span.run_s", time.Since(start).Seconds())
	start = time.Now()
	b.check(s.matches(o))
	b.verify += time.Since(start)

	var enq, marks, drops uint64
	for _, sw := range s.net.Switches() {
		for i := 0; i < sw.Ports(); i++ {
			st := sw.Port(i).Stats()
			enq += st.Enqueued
			marks += st.Marked
			drops += st.DroppedOverflow + st.DroppedPolicy
		}
	}
	b.set("netsim.enqueued", float64(enq))
	b.set("netsim.marks", float64(marks))
	b.set("netsim.drops", float64(drops))
	b.set("tcp.acks", float64(tap.acks))
	b.set("tcp.retransmits", float64(tap.retransmits))
	return nil
}

// reference runs the workload's detailed model and scores the fast
// model against it; workloads without one report zero error and time.
func (b *bench) reference(o *outcome) error {
	if b.w.reference == nil {
		for _, m := range []string{"span.reference_s", "hybrid.event_ratio", "hybrid.queue_err", "hybrid.fct_err"} {
			b.set(m, 0)
		}
		return nil
	}
	runtime.GC()
	start := time.Now()
	ref, err := b.w.reference(b.seed)
	if err != nil {
		return err
	}
	b.set("span.reference_s", time.Since(start).Seconds())
	b.checkPass(ref, nil)
	b.set("hybrid.event_ratio", float64(ref.events)/float64(o.events))
	b.set("hybrid.queue_err", relErr(o.queueMean, ref.queueMean))
	b.set("hybrid.fct_err", relErr(o.fctMean, ref.fctMean))
	return nil
}

// relErr is |got − want| ÷ want, zero when want is zero (the checks have
// already failed the run then).
func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(got-want) / want
}

// attribute merges the traced passes' CPU profiles into per-module
// shares and the share of CPU the garbage collector took.
func attribute(profiles [][]byte) (map[string]float64, float64, error) {
	charged := map[string]float64{}
	var total, gc float64
	for _, raw := range profiles {
		c, t, g, err := chargeProfile(raw)
		if err != nil {
			return nil, 0, err
		}
		for m, v := range c {
			charged[m] += v
		}
		total += t
		gc += g
	}
	if total == 0 {
		return nil, 0, errors.New("CPU profiles hold no samples")
	}
	shares := make(map[string]float64, len(modules))
	for _, m := range modules {
		shares[m] = charged[m] / total
	}
	return shares, gc / total, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// provenance identifies what produced a result and on what machine.
func provenance(workload string, seed int64, traced int) map[string]any {
	rev, modified := "unknown", "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"vcs.revision":   rev,
		"vcs.modified":   modified,
		"go_version":     runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
		"workload":       workload,
		"seed":           seed,
		"trace":          traced,
		"calibration_ns": calibrationNs(),
	}
}

// calibrationNs times a fixed integer loop (median of five), a yardstick
// for comparing results measured on different machines as ratios.
func calibrationNs() float64 {
	var times []float64
	for r := 0; r < 5; r++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		times = append(times, float64(time.Since(start).Nanoseconds()))
		calibrationSink = x
	}
	return median(times)
}

// calibrationSink keeps the calibration loop from being optimized away.
var calibrationSink uint64
