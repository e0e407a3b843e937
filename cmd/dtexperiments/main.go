// Command dtexperiments regenerates every figure of the paper as a table
// on stdout. EXPERIMENTS.md records one full run of this tool next to the
// paper's reported numbers.
//
// Usage:
//
//	dtexperiments                 # every figure, paper-scale parameters
//	dtexperiments -fig 10,11,12   # just the flow-count sweep figures
//	dtexperiments -short          # reduced durations for a quick pass
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"dtdctcp"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/runner"
	"dtdctcp/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dtexperiments:", err)
		os.Exit(1)
	}
}

type settings struct {
	duration time.Duration
	warmup   time.Duration
	rounds   int
	seeds    int
	workers  int
	// collect, when non-nil, receives observability snapshots from the
	// figures that support them (-metrics flag).
	collect *[]metrics.Named
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dtexperiments", flag.ContinueOnError)
	var (
		figs       = fs.String("fig", "1,2,6,9,10,11,12,14,15", "comma-separated figure ids to run (extensions: aqm, d2, buildup, zoo)")
		short      = fs.Bool("short", false, "reduced durations for a quick pass")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent sweep points (results are identical for any value)")
		metricsOut = fs.String("metrics", "", "write observability snapshots of the fig-1 runs as JSON to this path")
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

	s := settings{duration: 200 * time.Millisecond, warmup: 40 * time.Millisecond, rounds: 20, seeds: 3}
	if *short {
		s = settings{duration: 40 * time.Millisecond, warmup: 10 * time.Millisecond, rounds: 5, seeds: 1}
	}
	s.workers = *workers
	if s.workers < 1 {
		s.workers = 1
	}
	var collected []metrics.Named
	if *metricsOut != "" {
		s.collect = &collected
	}

	runners := map[string]func(settings, io.Writer) error{
		"1":  fig1,
		"2":  fig2,
		"6":  fig6,
		"9":  fig9,
		"10": figSweep, // Figs. 10–12 share one sweep; run it once.
		"11": figSweep,
		"12": figSweep,
		"14": fig14,
		"15": fig15,
		// Extensions beyond the paper's figures.
		"aqm":     extAQM,
		"d2":      extDeadlines,
		"buildup": extBuildup,
		"zoo":     extZoo,
	}
	ran := make(map[string]bool)
	for _, id := range strings.Split(*figs, ",") {
		id = strings.TrimSpace(id)
		fn, ok := runners[id]
		if !ok {
			return fmt.Errorf("unknown figure %q", id)
		}
		key := id
		if id == "10" || id == "11" || id == "12" {
			key = "sweep"
		}
		if ran[key] {
			continue
		}
		ran[key] = true
		if err := fn(s, out); err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
	}
	if *metricsOut != "" {
		if err := metrics.WriteFile(*metricsOut, collected); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nmetrics written to %s\n", *metricsOut)
	}
	if *memProfile != "" {
		if err := metrics.WriteHeapProfile(*memProfile); err != nil {
			return err
		}
	}
	return nil
}

func header(out io.Writer, title string) {
	fmt.Fprintln(out)
	fmt.Fprintln(out, "=== "+title+" ===")
}

// fig1 regenerates Fig. 1: DCTCP queue traces at N = 10 and N = 100.
func fig1(s settings, out io.Writer) error {
	header(out, "Fig. 1 — DCTCP queue oscillation (10 Gbps, 100 µs RTT, K=40, g=1/16)")
	for _, n := range []int{10, 100} {
		res, err := dtdctcp.RunDumbbell(dtdctcp.DumbbellConfig{
			Protocol:         dtdctcp.DCTCP(40, 1.0/16),
			Flows:            n,
			Rate:             10 * dtdctcp.Gbps,
			RTT:              100 * time.Microsecond,
			BufferPkts:       600,
			Duration:         s.duration,
			Warmup:           s.warmup,
			QueueSampleEvery: 25 * time.Microsecond,
			Seed:             1,
			Metrics:          s.collect != nil,
		})
		if err != nil {
			return err
		}
		if s.collect != nil {
			*s.collect = append(*s.collect,
				metrics.Named{Name: fmt.Sprintf("fig1-n%d", n), Snapshot: res.Metrics})
		}
		fmt.Fprintf(out, "\nN = %d: mean %.1f pkts, stddev %.1f, excursion [%.0f, %.0f] (peak-to-peak %.0f)\n",
			n, res.QueueMeanPkts, res.QueueStdPkts, res.QueueMinPkts, res.QueueMaxPkts,
			res.QueueMaxPkts-res.QueueMinPkts)
		if res.QueueSeries != nil {
			// Plot only the steady state; the slow-start transient
			// would dominate the y-scale otherwise.
			steady := stats.NewSeries("queue (packets, steady state)")
			for _, pt := range res.QueueSeries.Points() {
				if pt.T >= s.warmup.Seconds() {
					steady.Add(pt.T, pt.V)
				}
			}
			fmt.Fprint(out, steady.AsciiPlot(100, 12))
		}
	}
	fmt.Fprintln(out, "\npaper: N=100 amplitude ≈ 3–4× the N=10 amplitude")
	return nil
}

// fig2 regenerates Fig. 2: both marking strategies on one trajectory.
func fig2(_ settings, out io.Writer) error {
	header(out, "Fig. 2 — marking strategies on a rise-and-fall queue trajectory (peak 80 pkts)")
	traj := dtdctcp.TriangleTrajectory(80)
	protos := []dtdctcp.Protocol{dtdctcp.DCTCP(40, 1.0/16), dtdctcp.DTDCTCP(30, 50, 1.0/16)}
	for _, p := range protos {
		dec, err := dtdctcp.ReplayMarker(p, traj)
		if err != nil {
			return err
		}
		firstOn, lastOn := -1, -1
		for i, d := range dec {
			if d.Marked {
				if firstOn < 0 {
					firstOn = i
				}
				lastOn = i
			}
		}
		fmt.Fprintf(out, "%-24s marks from q=%d (rising) to q=%d (falling)\n",
			p.Name, dec[firstOn].QueuePkts, dec[lastOn].QueuePkts)
	}
	fmt.Fprintln(out, "paper: DCTCP marks symmetrically at K; DT-DCTCP starts at K1 rising, releases at K2 falling")
	return nil
}

// fig6 validates the describing functions of Figs. 6/8 numerically.
func fig6(_ settings, out io.Writer) error {
	header(out, "Figs. 6/8 — describing functions, closed form (Eqs. 22/27) vs numeric Fourier")
	fmt.Fprintln(out, "    X    N_dc analytic    N_dc numeric     N_dt analytic           N_dt numeric")
	dcDF := dtdctcp.DCTCPDF{K: 40}
	dtDF := dtdctcp.DTDCTCPDF{K1: 30, K2: 50}
	const steps = 200000
	for _, x := range []float64{55, 70, 100, 200} {
		x := x
		dc := dcDF.Eval(x)
		dcn := dtdctcp.NumericDF(x, steps, func(th float64) float64 {
			if x*math.Sin(th) >= 40 {
				return 1
			}
			return 0
		})
		dtv := dtDF.Eval(x)
		phi1 := math.Asin(30 / x)
		phi2 := math.Pi - math.Asin(50/x)
		dtn := dtdctcp.NumericDF(x, steps, func(th float64) float64 {
			if th >= phi1 && th <= phi2 {
				return 1
			}
			return 0
		})
		fmt.Fprintf(out, "  %5.0f  %13.6g  %13.6g   %10.6g+%.6gj   %10.6g+%.6gj\n",
			x, real(dc), real(dcn), real(dtv), imag(dtv), real(dtn), imag(dtn))
	}
	return nil
}

// fig9 regenerates Fig. 9: Nyquist verdicts across N and the onsets.
func fig9(_ settings, out io.Writer) error {
	header(out, "Fig. 9 — Nyquist / describing-function stability (R=100 µs, C=10 Gbps, K=40, g=1/16)")
	params := dtdctcp.PaperAnalysisParams()
	dc := dtdctcp.DCTCP(40, 1.0/16)
	dt := dtdctcp.DTDCTCP(30, 50, 1.0/16)
	fmt.Fprintln(out, "   N   DCTCP                                      DT-DCTCP")
	for _, n := range []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		vdc, err := dtdctcp.AnalyzeStability(dc, params, n)
		if err != nil {
			return err
		}
		vdt, err := dtdctcp.AnalyzeStability(dt, params, n)
		if err != nil {
			return err
		}
		mdc, err := dtdctcp.StabilityMargins(dc, params, n)
		if err != nil {
			return err
		}
		mdt, err := dtdctcp.StabilityMargins(dt, params, n)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, " %3d   %-36s gm=%4.2f   %-36s gm=%4.2f\n",
			n, verdict(vdc), mdc.GainMargin, verdict(vdt), mdt.GainMargin)
	}
	ndc, err := dtdctcp.CriticalFlows(dc, params, 2, 200)
	if err != nil {
		return err
	}
	ndt, err := dtdctcp.CriticalFlows(dt, params, 2, 200)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\noscillation onset: DCTCP N=%d, DT-DCTCP N=%d (paper: 60 and 70)\n", ndc, ndt)
	return nil
}

func verdict(v dtdctcp.StabilityVerdict) string {
	if v.Stable {
		return fmt.Sprintf("stable (approach %.3f)", v.ClosestApproach)
	}
	return fmt.Sprintf("oscillates X=%.0f pkts, %.0f rad/s", v.Cycle.Amplitude, v.Cycle.Frequency)
}

// figSweep regenerates Figs. 10, 11 and 12: the N = 10..100 sweep.
func figSweep(s settings, out io.Writer) error {
	header(out, "Figs. 10/11/12 — flow sweep (10 Gbps, 100 µs RTT; DCTCP K=40 vs DT-DCTCP K1=30/K2=50)")
	base := dtdctcp.DumbbellConfig{
		Rate:       10 * dtdctcp.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Duration:   s.duration,
		Warmup:     s.warmup,
		Seed:       1,
	}
	flows := make([]int, 0, 19)
	for n := 10; n <= 100; n += 5 {
		flows = append(flows, n)
	}
	baseDC := base
	baseDC.Protocol = dtdctcp.DCTCP(40, 1.0/16)
	dc, err := dtdctcp.SweepFlowsParallel(context.Background(), baseDC, flows, s.workers)
	if err != nil {
		return err
	}
	baseDT := base
	baseDT.Protocol = dtdctcp.DTDCTCP(30, 50, 1.0/16)
	dt, err := dtdctcp.SweepFlowsParallel(context.Background(), baseDT, flows, s.workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "   N | DCTCP  mean  norm    sd  alpha | DT-DCTCP mean  norm    sd  alpha")
	for i := range dc {
		rdc, rdt := dc[i].Result, dt[i].Result
		fmt.Fprintf(out, " %3d |       %5.1f %5.2f %5.1f  %.3f |         %5.1f %5.2f %5.1f  %.3f\n",
			dc[i].Flows,
			rdc.QueueMeanPkts, rdc.QueueMeanPkts/dc[0].Result.QueueMeanPkts, rdc.QueueStdPkts, rdc.AlphaMean,
			rdt.QueueMeanPkts, rdt.QueueMeanPkts/dt[0].Result.QueueMeanPkts, rdt.QueueStdPkts, rdt.AlphaMean)
	}
	fmt.Fprintln(out, "\nFig. 10 paper: DCTCP mean strays from N≈35 (up to 1.83× baseline); DT-DCTCP holds near 1× until N≈70")
	fmt.Fprintln(out, "Fig. 11 paper: both sd grow with N; DT-DCTCP's sd below DCTCP's at every N")
	fmt.Fprintln(out, "Fig. 12 paper: both alpha grow with N; DT-DCTCP's alpha below DCTCP's by ≈0.1")
	return nil
}

// fig14 regenerates Fig. 14: incast goodput vs synchronized flow count.
func fig14(s settings, out io.Writer) error {
	header(out, "Fig. 14 — incast: 64 KB/worker, 1 Gbps testbed, 128 KB buffer (DCTCP K=21; DT-DCTCP K1=16/K2=26)")
	fmt.Fprintln(out, "   n | DCTCP goodput  timeouts | DT-DCTCP goodput  timeouts")
	workers := []int{8, 16, 24, 32, 40, 48, 56, 64, 72}
	type incastRow struct {
		gdc, gdt float64
		tdc, tdt uint64
	}
	// Each point simulates both protocols in its own engines; the rows
	// come back in input order regardless of the worker count.
	rows, err := runner.Map(context.Background(), len(workers), runner.Options{Workers: s.workers},
		func(_ context.Context, i int) (incastRow, error) {
			var r incastRow
			var err error
			if r.gdc, r.tdc, err = incastPoint(dtdctcp.DCTCP(21, 1.0/16), workers[i], s); err != nil {
				return r, err
			}
			r.gdt, r.tdt, err = incastPoint(dtdctcp.DTDCTCP(16, 26, 1.0/16), workers[i], s)
			return r, err
		})
	if err != nil {
		return err
	}
	collapseDC, collapseDT := -1, -1
	for i, r := range rows {
		n := workers[i]
		if collapseDC < 0 && r.gdc < 0.5e9 {
			collapseDC = n
		}
		if collapseDT < 0 && r.gdt < 0.5e9 {
			collapseDT = n
		}
		fmt.Fprintf(out, " %3d |  %7.1f Mbps  %8d |   %7.1f Mbps  %8d\n",
			n, r.gdc/1e6, r.tdc, r.gdt/1e6, r.tdt)
	}
	fmt.Fprintf(out, "\ncollapse onset (goodput < 500 Mbps): DCTCP n=%s, DT-DCTCP n=%s (paper: 32 and 37)\n",
		onset(collapseDC), onset(collapseDT))
	return nil
}

func onset(n int) string {
	if n < 0 {
		return ">72"
	}
	return fmt.Sprint(n)
}

func incastPoint(p dtdctcp.Protocol, n int, s settings) (goodput float64, timeouts uint64, err error) {
	for seed := int64(1); seed <= int64(s.seeds); seed++ {
		cfg := dtdctcp.DefaultTestbed(p, n)
		cfg.Seed = seed
		res, err := dtdctcp.RunIncast(cfg, s.rounds)
		if err != nil {
			return 0, 0, err
		}
		goodput += res.MeanGoodputBps / float64(s.seeds)
		timeouts += res.Timeouts
	}
	return goodput, timeouts, nil
}

// fig15 regenerates Fig. 15: query completion time vs worker count.
func fig15(s settings, out io.Writer) error {
	header(out, "Fig. 15 — completion time: 1 MB split n ways (floor ≈ 10 ms at 1 Gbps)")
	fmt.Fprintln(out, "   n | DCTCP   mean      p95      max | DT-DCTCP mean      p95      max")
	counts := []int{8, 16, 24, 32, 40, 48, 56, 64}
	type completionRow struct{ dc, dt *dtdctcp.QueryResult }
	rows, err := runner.Map(context.Background(), len(counts), runner.Options{Workers: s.workers},
		func(_ context.Context, i int) (completionRow, error) {
			var r completionRow
			var err error
			if r.dc, err = completionPoint(dtdctcp.DCTCP(21, 1.0/16), counts[i], s); err != nil {
				return r, err
			}
			r.dt, err = completionPoint(dtdctcp.DTDCTCP(16, 26, 1.0/16), counts[i], s)
			return r, err
		})
	if err != nil {
		return err
	}
	for i, r := range rows {
		fmt.Fprintf(out, " %3d |  %8.1f %8.1f %8.1f |  %8.1f %8.1f %8.1f   (ms)\n",
			counts[i],
			ms(r.dc.MeanCompletion), ms(r.dc.P95Completion), ms(r.dc.MaxCompletion),
			ms(r.dt.MeanCompletion), ms(r.dt.P95Completion), ms(r.dt.MaxCompletion))
	}
	fmt.Fprintln(out, "\npaper: completion ≈10 ms until Incast; DCTCP oscillates from n=34 and spikes ≈20× at 40; DT-DCTCP climbs smoothly and spikes at 42")
	return nil
}

func completionPoint(p dtdctcp.Protocol, n int, s settings) (*dtdctcp.QueryResult, error) {
	cfg := dtdctcp.DefaultTestbed(p, n)
	return dtdctcp.RunCompletionTime(cfg, s.rounds)
}

func ms(d time.Duration) float64 {
	return math.Round(d.Seconds()*1e4) / 10
}

// extAQM compares every queue law in the library at the paper's N = 60
// oscillation point.
func extAQM(s settings, out io.Writer) error {
	header(out, "Extension — queue-law comparison at N = 60 (10 Gbps, 100 µs RTT)")
	protos := []dtdctcp.Protocol{
		dtdctcp.Reno(),
		dtdctcp.Cubic(),
		dtdctcp.RenoECN(40),
		dtdctcp.RenoPIE(10*dtdctcp.Gbps, 200*time.Microsecond),
		dtdctcp.RenoCoDel(200*time.Microsecond, time.Millisecond),
		dtdctcp.DCTCP(40, 1.0/16),
		dtdctcp.DTDCTCP(30, 50, 1.0/16),
		dtdctcp.DCTCPPlus(40, 1.0/16),
		dtdctcp.HULL(40, 0.95, 10*dtdctcp.Gbps, 1.0/16),
	}
	fmt.Fprintf(out, "%-28s %10s %8s %8s %9s %8s\n",
		"protocol", "mean(pkt)", "sd(pkt)", "util", "marks", "drops")
	for _, p := range protos {
		res, err := dtdctcp.RunDumbbell(dtdctcp.DumbbellConfig{
			Protocol:   p,
			Flows:      60,
			Rate:       10 * dtdctcp.Gbps,
			RTT:        100 * time.Microsecond,
			BufferPkts: 600,
			Duration:   s.duration,
			Warmup:     s.warmup,
			Seed:       1,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-28s %10.1f %8.1f %7.1f%% %9d %8d\n",
			res.Protocol, res.QueueMeanPkts, res.QueueStdPkts,
			res.Utilization*100, res.Marks, res.Drops)
	}
	return nil
}

// extBuildup runs the queue-buildup microbenchmark from the DCTCP
// evaluation: short transfers behind bulk flows.
func extBuildup(_ settings, out io.Writer) error {
	header(out, "Extension — queue buildup: 20 KB short flows behind 2 bulk flows (10 Gbps)")
	fmt.Fprintf(out, "%-28s %9s %9s %9s %11s\n", "protocol", "meanFCT", "p95FCT", "maxFCT", "queue(pkt)")
	for _, p := range []dtdctcp.Protocol{
		dtdctcp.Reno(),
		dtdctcp.Cubic(),
		dtdctcp.DCTCP(40, 1.0/16),
		dtdctcp.DTDCTCP(30, 50, 1.0/16),
	} {
		res, err := dtdctcp.RunBuildup(dtdctcp.DefaultBuildup(p))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-28s %8.0fµs %8.0fµs %8.0fµs %11.1f\n",
			res.Protocol,
			float64(res.MeanFCT.Microseconds()),
			float64(res.P95FCT.Microseconds()),
			float64(res.MaxFCT.Microseconds()),
			res.QueueMeanPkts)
	}
	fmt.Fprintln(out, "\nshort-flow latency is the standing queue: DropTail stacks ~500 pkts in front of every short transfer")
	return nil
}

// extZoo runs the protocol-and-switch zoo: the sender-side DCTCP+ slow
// timer against the switch-side DT-DCTCP fix on the testbed incast, the
// HULL phantom-queue γ sweep (utilization pins at γ while the real queue
// keeps headroom), and the shared-buffer dynamic-threshold switch across
// α (the bottleneck queue caps at αB/(1+α)).
func extZoo(s settings, out io.Writer) error {
	header(out, "Zoo — DCTCP+ vs DT-DCTCP vs DCTCP incast (64 KB per worker)")
	fmt.Fprintf(out, "%-8s %-22s %10s %10s %9s %8s\n",
		"workers", "protocol", "meanC", "goodput", "timeouts", "drops")
	for _, w := range []int{16, 32} {
		for _, p := range []dtdctcp.Protocol{
			dtdctcp.DCTCPPlus(20, 1.0/16),
			dtdctcp.DTDCTCP(16, 26, 1.0/16),
			dtdctcp.DCTCP(20, 1.0/16),
		} {
			cfg := dtdctcp.DefaultTestbed(p, w)
			res, err := dtdctcp.RunIncast(cfg, s.rounds)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-8d %-22s %10v %9.2fM %9d %8d\n",
				w, res.Protocol, res.MeanCompletion.Round(10*time.Microsecond),
				res.MeanGoodputBps/1e6, res.Timeouts, res.Drops)
		}
	}

	header(out, "Zoo — HULL phantom queue γ sweep (20 flows, 10 Gbps, K=40)")
	fmt.Fprintf(out, "%-8s %10s %10s %9s %8s\n", "gamma", "util", "mean(pkt)", "marks", "drops")
	for _, gamma := range []float64{0.80, 0.90, 0.95, 1.0} {
		res, err := dtdctcp.RunDumbbell(dtdctcp.DumbbellConfig{
			Protocol:   dtdctcp.HULL(40, gamma, 10*dtdctcp.Gbps, 1.0/16),
			Flows:      20,
			Rate:       10 * dtdctcp.Gbps,
			RTT:        100 * time.Microsecond,
			BufferPkts: 600,
			Duration:   s.duration,
			Warmup:     s.warmup,
			Seed:       1,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-8.2f %9.1f%% %10.1f %9d %8d\n",
			gamma, res.Utilization*100, res.QueueMeanPkts, res.Marks, res.Drops)
	}
	fmt.Fprintln(out, "\nutilization tracks γ: the phantom queue trades bandwidth headroom for near-empty real buffers")

	// Loss-driven Reno fills whatever buffer it is given, so the
	// dynamic-threshold cap αB/(1+α) shows up directly in the queue max;
	// ECN-governed flows never push the pool hard enough to see it.
	header(out, "Zoo — shared-buffer dynamic-threshold switch (40 Reno flows, pool = 600 pkts)")
	fmt.Fprintf(out, "%-10s %10s %10s %10s %10s %9s %8s\n", "alpha", "cap(pkt)", "util", "mean(pkt)", "max(pkt)", "marks", "drops")
	for _, alpha := range []float64{0.5, 1, 2, 8} {
		res, err := dtdctcp.RunDumbbell(dtdctcp.DumbbellConfig{
			Protocol:     dtdctcp.Reno(),
			Flows:        40,
			Rate:         10 * dtdctcp.Gbps,
			RTT:          100 * time.Microsecond,
			BufferPkts:   600,
			Duration:     s.duration,
			Warmup:       s.warmup,
			Seed:         1,
			SharedBuffer: dtdctcp.SharedBufferConfig{Alpha: alpha},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-10.1f %10.0f %9.1f%% %10.1f %10.0f %9d %8d\n",
			alpha, alpha*600/(1+alpha), res.Utilization*100,
			res.QueueMeanPkts, res.QueueMaxPkts, res.Marks, res.Drops)
	}
	fmt.Fprintln(out, "\nthe dynamic threshold caps one congested port at αB/(1+α), keeping pool headroom for the quiet ports")
	return nil
}

// extDeadlines sweeps deadline tightness for the D²TCP extension.
func extDeadlines(s settings, out io.Writer) error {
	header(out, "Extension — D²TCP deadline miss rate (32 workers × 64 KB)")
	fmt.Fprintln(out, "deadline | dctcp   | d2tcp")
	for _, deadline := range []time.Duration{
		30 * time.Millisecond, 25 * time.Millisecond, 20 * time.Millisecond,
	} {
		fmt.Fprintf(out, "%8v |", deadline)
		for _, p := range []dtdctcp.Protocol{
			dtdctcp.DCTCP(21, 1.0/16), dtdctcp.D2TCP(21, 1.0/16),
		} {
			cfg := dtdctcp.DefaultTestbed(p, 32)
			cfg.Deadline = deadline
			res, err := dtdctcp.RunIncast(cfg, s.rounds)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, " %5.1f%%  |", res.DeadlineMissRate*100)
		}
		fmt.Fprintln(out)
	}
	return nil
}
