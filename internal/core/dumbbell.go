package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"dtdctcp/internal/chaos"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/runner"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/stats"
	"dtdctcp/internal/trace"
	"dtdctcp/internal/workload"
)

// DumbbellConfig is the scenario of the paper's Section VI-A simulations:
// N long-lived flows share one bottleneck of the given rate and round-trip
// time.
type DumbbellConfig struct {
	// Protocol selects endpoints and queue law.
	Protocol Protocol
	// Flows is N, the number of long-lived flows.
	Flows int
	// Rate is the bottleneck link speed (the paper uses 10 Gbps).
	Rate netsim.Rate
	// RTT is the zero-queue round-trip time (the paper uses 100 µs).
	RTT time.Duration
	// BufferPkts is the bottleneck buffer in packets.
	BufferPkts int
	// Duration is the measured interval, after Warmup.
	Duration time.Duration
	// Warmup is excluded from all aggregate statistics.
	Warmup time.Duration
	// QueueSampleEvery decimates the queue time series; zero disables
	// the series (aggregates are always collected).
	QueueSampleEvery time.Duration
	// AlphaSampleEvery sets the sampling period of the mean-α series;
	// zero disables it.
	AlphaSampleEvery time.Duration
	// Seed drives all randomness (start jitter).
	Seed int64
	// TraceTo, when set, streams the bottleneck port's per-packet
	// events (enqueue/dequeue/mark/drop, plus fault events when Chaos
	// is set) as JSON Lines.
	TraceTo io.Writer
	// Chaos, when set, applies the fault-injection plan to the running
	// topology. Plans may target the link names "bottleneck" (switch →
	// receiver), "ack" (receiver → switch), and "access<i>" (sender i →
	// switch). Event times are absolute virtual times, so plans should
	// account for Warmup.
	Chaos *chaos.Plan
	// Metrics enables the observability registry: the result carries a
	// Snapshot covering the engine, bottleneck port, senders, and chaos
	// controller. Collection is pull-based, so enabling it changes no
	// event order and no result field.
	Metrics bool
	// MetricsSampleEvery additionally runs a periodic virtual-time
	// sampler exporting queue depth, mean α, and mean cwnd as series in
	// the snapshot (implies Metrics). Unlike plain Metrics, the
	// sampler's ticks are engine events: a sampled run is a different —
	// still deterministic — run than an unsampled one.
	MetricsSampleEvery time.Duration
	// SharedBuffer, when enabled (Alpha > 0), replaces the switch's
	// static per-port buffers with one dynamic-threshold pool.
	SharedBuffer SharedBufferConfig
}

// SharedBufferConfig opts a scenario's bottleneck switch into
// shared-buffer dynamic-threshold allocation (netsim.SharedBuffer):
// admission tail-drops against T = α·(B − ΣQ) instead of a static
// per-port bound. The zero value leaves buffers private.
type SharedBufferConfig struct {
	// Alpha is the dynamic-threshold parameter; zero disables sharing.
	Alpha float64
	// PoolPkts is the pool capacity B in packets; zero defaults to the
	// scenario's per-port buffer (BufferPkts), which makes the
	// single-member pool directly comparable to the private-buffer run.
	PoolPkts int
	// BottleneckOnly restricts the pool to the bottleneck port instead
	// of every port of the switch. The conformance grid's
	// uncontended-limit scenario uses this: with one member and a large
	// α the pool must agree verdict-for-verdict with per-port tail-drop.
	BottleneckOnly bool
}

// enabled reports whether the scenario shares buffers.
func (s SharedBufferConfig) enabled() bool { return s.Alpha > 0 }

// build creates the pool (poolPkts defaulted to bufferPkts) and attaches
// either just the bottleneck or every port of the switch.
func (s SharedBufferConfig) build(sw *netsim.Switch, bneck *netsim.Port, bufferPkts, pktSize int) (*netsim.SharedBuffer, error) {
	poolPkts := s.PoolPkts
	if poolPkts <= 0 {
		poolPkts = bufferPkts
	}
	pool, err := netsim.NewSharedBuffer(poolPkts*pktSize, s.Alpha)
	if err != nil {
		return nil, err
	}
	if s.BottleneckOnly {
		return pool, pool.Attach(bneck)
	}
	for i := 0; i < sw.Ports(); i++ {
		if err := pool.Attach(sw.Port(i)); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

func (c DumbbellConfig) validate() error {
	switch {
	case c.Flows <= 0:
		return errors.New("core: Flows must be positive")
	case c.Rate <= 0:
		return errors.New("core: Rate must be positive")
	case c.RTT <= 0:
		return errors.New("core: RTT must be positive")
	case c.BufferPkts <= 0:
		return errors.New("core: BufferPkts must be positive")
	case c.Duration <= 0:
		return errors.New("core: Duration must be positive")
	default:
		return nil
	}
}

// DumbbellResult aggregates one dumbbell run.
type DumbbellResult struct {
	// Protocol and Flows echo the configuration.
	Protocol string
	Flows    int

	// QueueMeanPkts and QueueStdPkts are the time-weighted queue
	// statistics in packets over the measured interval (Figs. 10, 11).
	QueueMeanPkts, QueueStdPkts float64
	// QueueMinPkts and QueueMaxPkts bound the measured excursion.
	QueueMinPkts, QueueMaxPkts float64
	// QueueSeries is the decimated occupancy trace (Fig. 1), including
	// warmup; nil when sampling was disabled.
	QueueSeries *stats.Series

	// AlphaMean is the time-average of the flows' mean α over the
	// measured interval (Fig. 12).
	AlphaMean float64
	// AlphaSeries is the sampled mean-α trace; nil when disabled.
	AlphaSeries *stats.Series

	// OscPeriod is the dominant queue-oscillation period estimated from
	// the sampled trace by autocorrelation (zero when QueueSampleEvery
	// was unset or no periodicity was found); OscConfidence is the
	// normalized autocorrelation at that lag. Comparable against the
	// limit-cycle period predicted by the describing-function analysis.
	OscPeriod     time.Duration
	OscConfidence float64

	// Utilization is bottleneck goodput ÷ capacity over the measured
	// interval.
	Utilization float64
	// Marks, Drops count bottleneck CE marks and overflow drops over
	// the whole run (warmup included).
	Marks, Drops uint64
	// Timeouts counts sender RTOs over the whole run.
	Timeouts uint64
	// Fairness is Jain's index over per-flow acknowledged bytes at the
	// end of the run (1 = perfectly even).
	Fairness float64
	// PerFlowAcked lists each flow's acknowledged bytes.
	PerFlowAcked []int64
	// Events is the number of simulator events processed, for
	// events-per-second throughput accounting in benchmarks.
	Events uint64

	// FaultDrops counts bottleneck packets lost to chaos faults (down
	// link or corruption) over the whole run.
	FaultDrops uint64
	// Recovery holds fault-recovery metrics of the queue trace around
	// the chaos plan's fault window; nil unless Chaos was set and the
	// queue series was sampled.
	Recovery *stats.Recovery

	// Metrics is the run's observability snapshot; nil unless
	// DumbbellConfig.Metrics (or MetricsSampleEvery) was set.
	Metrics *metrics.Snapshot
}

// RunDumbbell executes the scenario to completion and aggregates results.
func RunDumbbell(cfg DumbbellConfig) (*DumbbellResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	engine := sim.NewEngine(cfg.Seed)
	nw := netsim.NewNetwork(engine)
	sw := nw.AddSwitch("sw")
	rcv := nw.AddHost("rcv")

	pktSize := cfg.Protocol.PacketSize()
	// RTT splits evenly over the four link traversals.
	hop := cfg.RTT / 4
	access := netsim.PortConfig{
		Rate:   10 * cfg.Rate,
		Delay:  hop,
		Buffer: 4096 * pktSize,
	}
	var policy = cfg.Protocol.NewPolicy
	bneckCfg := netsim.PortConfig{
		Rate:   cfg.Rate,
		Delay:  hop,
		Buffer: cfg.BufferPkts * pktSize,
	}
	if policy != nil {
		bneckCfg.Policy = policy(engine.Rand())
	}
	if err := nw.Connect(rcv, sw, access, bneckCfg); err != nil {
		return nil, err
	}
	senders := make([]*netsim.Host, cfg.Flows)
	for i := range senders {
		senders[i] = nw.AddHost(fmt.Sprintf("s%d", i))
		if err := nw.Connect(senders[i], sw, access, access); err != nil {
			return nil, err
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		return nil, err
	}

	bneck := sw.PortTo(rcv.ID())
	if cfg.SharedBuffer.enabled() {
		if _, err := cfg.SharedBuffer.build(sw, bneck, cfg.BufferPkts, pktSize); err != nil {
			return nil, err
		}
	}

	var obs *observer
	if cfg.Metrics || cfg.MetricsSampleEvery > 0 {
		obs = newObserver(engine, cfg.MetricsSampleEvery)
	}

	rec := netsim.NewQueueRecorder(pktSize, sim.FromDuration(cfg.QueueSampleEvery))
	rec.WarmupUntil = sim.FromDuration(cfg.Warmup)
	if obs != nil {
		qmon := obs.observePort("bottleneck", bneck, pktSize, cfg.BufferPkts)
		bneck.SetMonitor(netsim.MultiMonitor{rec, qmon})
	} else {
		bneck.SetMonitor(rec)
	}

	var tracer *trace.Recorder
	if cfg.TraceTo != nil {
		tracer = trace.NewRecorder(cfg.TraceTo)
		tracer.PacketSize = pktSize
		bneck.SetTracer(tracer)
	}

	if cfg.Chaos != nil {
		ctl := chaos.NewController(nw, cfg.Chaos)
		ctl.BindLink("bottleneck", bneck)
		ctl.BindLink("ack", rcv.Uplink())
		for i, snd := range senders {
			ctl.BindLink(fmt.Sprintf("access%d", i), snd.Uplink())
		}
		if tracer != nil {
			ctl.SetTrace(tracer)
		}
		if err := ctl.Apply(); err != nil {
			return nil, err
		}
		if obs != nil {
			obs.observeChaos(ctl)
		}
	}

	flows := workload.StartLongLived(engine, workload.LongLivedConfig{
		Hosts:       senders,
		Receiver:    rcv,
		TCP:         cfg.Protocol.TCP,
		StartJitter: cfg.RTT,
	})
	if obs != nil {
		obs.observeFlows(flows)
		obs.startSampler(bneck, pktSize, flows)
	}

	// α sampling (Fig. 12): a periodic event records the mean α.
	var alphaSeries *stats.Series
	if cfg.AlphaSampleEvery > 0 {
		alphaSeries = stats.NewSeries("alpha")
		var tick func()
		tick = func() {
			alphaSeries.Add(engine.Now().Seconds(), flows.MeanAlpha())
			engine.After(cfg.AlphaSampleEvery, tick)
		}
		engine.After(cfg.AlphaSampleEvery, tick)
	}
	// Aggregate α as a time-weighted mean over the measured interval.
	var alphaAgg stats.TimeWeighted
	alphaEvery := cfg.RTT // one α observation per RTT is plenty
	var alphaTick func()
	alphaTick = func() {
		if engine.Now() >= sim.FromDuration(cfg.Warmup) {
			alphaAgg.Observe(engine.Now().Seconds(), flows.MeanAlpha())
		}
		engine.After(alphaEvery, alphaTick)
	}
	engine.After(alphaEvery, alphaTick)

	// Snapshot bottleneck byte counts at the warmup boundary for the
	// utilization computation.
	var bytesAtWarmup uint64
	engine.Schedule(sim.FromDuration(cfg.Warmup), func() {
		bytesAtWarmup = bneck.Stats().BytesSent
	})
	if obs != nil {
		obs.observeUtilization(bneck, &bytesAtWarmup,
			cfg.Rate.BytesPerSecond()*cfg.Duration.Seconds())
	}

	end := sim.FromDuration(cfg.Warmup + cfg.Duration)
	if err := engine.RunUntil(end); err != nil {
		return nil, err
	}
	rec.Finish(end)
	alphaAgg.Finish(end.Seconds())

	res := &DumbbellResult{
		Protocol:      cfg.Protocol.Name,
		Flows:         cfg.Flows,
		QueueMeanPkts: rec.Mean(),
		QueueStdPkts:  rec.StdDev(),
		QueueMinPkts:  rec.Min(),
		QueueMaxPkts:  rec.Max(),
		QueueSeries:   rec.Series(),
		AlphaMean:     alphaAgg.Mean(),
		AlphaSeries:   alphaSeries,
		Marks:         bneck.Stats().Marked,
		Drops:         bneck.Stats().DroppedOverflow,
		Timeouts:      flows.Timeouts(),
		Events:        engine.Stats().Processed,
	}
	acked := make([]float64, len(flows.Senders))
	for i, snd := range flows.Senders {
		acked[i] = float64(snd.Acked())
		res.PerFlowAcked = append(res.PerFlowAcked, snd.Acked())
	}
	res.Fairness = stats.JainFairness(acked)
	sent := float64(bneck.Stats().BytesSent - bytesAtWarmup)
	res.Utilization = sent / (cfg.Rate.BytesPerSecond() * cfg.Duration.Seconds())

	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return nil, err
		}
	}

	if res.QueueSeries != nil {
		// Estimate the oscillation period on the post-warmup part of
		// the trace so the slow-start transient does not dominate.
		period, conf := stats.EstimatePeriod(res.QueueSeries.After(cfg.Warmup.Seconds()))
		res.OscPeriod = time.Duration(period * float64(time.Second))
		res.OscConfidence = conf
	}
	if cfg.Chaos != nil {
		st := bneck.Stats()
		res.FaultDrops = st.DroppedLinkDown + st.DroppedCorrupt
		if res.QueueSeries != nil {
			if fs, fe, ok := cfg.Chaos.FaultWindow(); ok {
				rec := stats.MeasureRecovery(res.QueueSeries, stats.RecoveryConfig{
					FaultStart: fs.Seconds(),
					FaultEnd:   fe.Seconds(),
				})
				res.Recovery = &rec
			}
		}
	}
	if obs != nil {
		res.Metrics = obs.snapshot(end)
	}
	return res, nil
}

// FlowSweepPoint is one (N, result-pair) sample of the paper's Figs. 10–12
// sweep.
type FlowSweepPoint struct {
	// Flows is N.
	Flows int
	// Result is the dumbbell outcome at this N.
	Result *DumbbellResult
}

// SweepFlows runs the dumbbell at each flow count in flows, reusing every
// other parameter of base. Points run serially; use SweepFlowsParallel to
// spread them over worker goroutines.
func SweepFlows(base DumbbellConfig, flows []int) ([]FlowSweepPoint, error) {
	return SweepFlowsParallel(context.Background(), base, flows, 1)
}

// SweepFlowsParallel runs the sweep points concurrently on up to workers
// goroutines (values < 1 mean GOMAXPROCS). Every point builds a private
// engine seeded only by base.Seed, so results are byte-identical for any
// worker count; they are returned in the order of flows.
//
// A per-packet trace interleaves points nondeterministically when written
// from concurrent runs, so a non-nil base.TraceTo forces workers to 1.
func SweepFlowsParallel(ctx context.Context, base DumbbellConfig, flows []int, workers int) ([]FlowSweepPoint, error) {
	if base.TraceTo != nil {
		workers = 1
	}
	return runner.Map(ctx, len(flows), runner.Options{Workers: workers},
		func(_ context.Context, i int) (FlowSweepPoint, error) {
			cfg := base
			cfg.Flows = flows[i]
			res, err := RunDumbbell(cfg)
			if err != nil {
				return FlowSweepPoint{}, fmt.Errorf("sweep N=%d: %w", flows[i], err)
			}
			return FlowSweepPoint{Flows: flows[i], Result: res}, nil
		})
}
