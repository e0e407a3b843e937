package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dtdctcp/internal/chaos"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/runner"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/stats"
	"dtdctcp/internal/workload"
)

// TestbedConfig reproduces the paper's NetFPGA testbed (Fig. 13) in the
// simulator: one core switch (Switch 1) with the aggregator host and three
// edge switches, workers spread round-robin across the edges, every link
// at 1 Gbps. The bottleneck is the core→aggregator port: it carries the
// protocol's marking law and a 128 KB buffer; all other ports are
// DropTail with 512 KB, exactly as the paper configures it.
type TestbedConfig struct {
	// Protocol selects endpoints and the bottleneck queue law.
	Protocol Protocol
	// Workers is the number of responding servers (the paper's testbed
	// has 9 physical workers but scales flows beyond that; we scale
	// hosts with the flow count, which the simulator affords).
	Workers int
	// LinkRate is the port speed; the paper's NetFPGA cards run 1 Gbps.
	LinkRate netsim.Rate
	// BottleneckBuffer is the core→aggregator buffer in bytes (paper:
	// 128 KB).
	BottleneckBuffer int
	// EdgeBuffer is every other port's buffer in bytes (paper: 512 KB).
	EdgeBuffer int
	// HopDelay is the per-link one-way propagation delay; the paper
	// reports ≈100 µs RTT between hosts on the same switch, i.e. ≈25 µs
	// per traversal.
	HopDelay time.Duration
	// StartJitter staggers worker responses within a round, modelling
	// request fan-out serialization and host scheduling noise on the
	// real testbed.
	StartJitter time.Duration
	// Gap is the aggregator's think time between rounds.
	Gap time.Duration
	// Deadline, when positive, gives every response a per-round
	// completion deadline; D2TCP endpoints modulate their backoff with
	// it and QueryResult reports the miss rate for every variant.
	Deadline time.Duration
	// FreshConnections opens new connections (slow start) every round.
	// The default — persistent connections whose congestion state
	// carries across rounds — matches the classic incast benchmark
	// setup the paper inherits from Nagle et al.
	FreshConnections bool
	// Seed drives randomness.
	Seed int64

	// Chaos, when set, applies a fault-injection plan to the topology.
	// Plans may target "bottleneck" (core switch → aggregator),
	// "agg-uplink" (aggregator → core switch), and "worker<i>"
	// (worker i → its edge switch). Event times are absolute virtual
	// times within the query run.
	Chaos *chaos.Plan
	// Metrics enables the observability registry: the result carries a
	// Snapshot covering the engine, the bottleneck port, and (when
	// Chaos is set) the chaos controller. Pull-based, so enabling it
	// changes nothing else.
	Metrics bool
	// SharedBuffer, when enabled (Alpha > 0), replaces the core
	// switch's static per-port buffers with one dynamic-threshold pool;
	// PoolPkts defaults to the bottleneck buffer.
	SharedBuffer SharedBufferConfig
}

// DefaultTestbed returns the paper's testbed parameters for a protocol.
func DefaultTestbed(p Protocol, workers int) TestbedConfig {
	return TestbedConfig{
		Protocol:         p,
		Workers:          workers,
		LinkRate:         1 * netsim.Gbps,
		BottleneckBuffer: 128 << 10,
		EdgeBuffer:       512 << 10,
		HopDelay:         25 * time.Microsecond,
		StartJitter:      50 * time.Microsecond,
		Gap:              100 * time.Microsecond,
		Seed:             1,
	}
}

func (c TestbedConfig) validate() error {
	switch {
	case c.Workers <= 0:
		return errors.New("core: Workers must be positive")
	case c.LinkRate <= 0:
		return errors.New("core: LinkRate must be positive")
	case c.BottleneckBuffer <= 0 || c.EdgeBuffer <= 0:
		return errors.New("core: buffers must be positive")
	case c.HopDelay <= 0:
		return errors.New("core: HopDelay must be positive")
	default:
		return nil
	}
}

// testbed is a built topology ready to carry queries.
type testbed struct {
	engine     *sim.Engine
	aggregator *netsim.Host
	workers    []*netsim.Host
	bneck      *netsim.Port
	obs        *observer
}

// buildTestbed constructs the Fig. 13 topology.
func buildTestbed(cfg TestbedConfig) (*testbed, error) {
	engine := sim.NewEngine(cfg.Seed)
	nw := netsim.NewNetwork(engine)
	core := nw.AddSwitch("switch1")
	agg := nw.AddHost("aggregator")

	edge := netsim.PortConfig{Rate: cfg.LinkRate, Delay: cfg.HopDelay, Buffer: cfg.EdgeBuffer}
	bneckCfg := netsim.PortConfig{Rate: cfg.LinkRate, Delay: cfg.HopDelay, Buffer: cfg.BottleneckBuffer}
	if cfg.Protocol.NewPolicy != nil {
		bneckCfg.Policy = cfg.Protocol.NewPolicy(engine.Rand())
	}
	if err := nw.Connect(agg, core, edge, bneckCfg); err != nil {
		return nil, err
	}

	const edges = 3
	edgeSwitches := make([]*netsim.Switch, edges)
	for i := range edgeSwitches {
		edgeSwitches[i] = nw.AddSwitch(fmt.Sprintf("switch%d", i+2))
		if err := nw.Connect(edgeSwitches[i], core, edge, edge); err != nil {
			return nil, err
		}
	}
	workers := make([]*netsim.Host, cfg.Workers)
	for i := range workers {
		workers[i] = nw.AddHost(fmt.Sprintf("worker%d", i))
		if err := nw.Connect(workers[i], edgeSwitches[i%edges], edge, edge); err != nil {
			return nil, err
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		return nil, err
	}
	bneck := core.PortTo(agg.ID())
	if cfg.SharedBuffer.enabled() {
		pktSize := cfg.Protocol.PacketSize()
		bufferPkts := cfg.BottleneckBuffer / pktSize
		if bufferPkts < 1 {
			bufferPkts = 1
		}
		if _, err := cfg.SharedBuffer.build(core, bneck, bufferPkts, pktSize); err != nil {
			return nil, err
		}
	}
	var obs *observer
	if cfg.Metrics {
		obs = newObserver(engine, 0)
		pktSize := cfg.Protocol.PacketSize()
		bufferPkts := cfg.BottleneckBuffer / pktSize
		if bufferPkts < 1 {
			bufferPkts = 1
		}
		bneck.SetMonitor(obs.observePort("bottleneck", bneck, pktSize, bufferPkts))
	}
	if cfg.Chaos != nil {
		ctl := chaos.NewController(nw, cfg.Chaos)
		ctl.BindLink("bottleneck", bneck)
		ctl.BindLink("agg-uplink", agg.Uplink())
		for i, w := range workers {
			ctl.BindLink(fmt.Sprintf("worker%d", i), w.Uplink())
		}
		if err := ctl.Apply(); err != nil {
			return nil, err
		}
		if obs != nil {
			obs.observeChaos(ctl)
		}
	}
	return &testbed{
		engine:     engine,
		aggregator: agg,
		workers:    workers,
		bneck:      bneck,
		obs:        obs,
	}, nil
}

// QueryResult aggregates a repeated synchronized query experiment.
type QueryResult struct {
	// Protocol and Workers echo the configuration.
	Protocol string
	Workers  int
	// Rounds is the number of completed repetitions.
	Rounds int
	// MeanGoodputBps is the average per-round application goodput
	// (Fig. 14's y-axis).
	MeanGoodputBps float64
	// MeanCompletion, P95Completion, MaxCompletion summarize the
	// query completion times (Fig. 15's y-axis).
	MeanCompletion, P95Completion, MaxCompletion time.Duration
	// CompletionStdDev is the standard deviation of completion times,
	// the "severe oscillation" the paper reports for DCTCP near
	// collapse.
	CompletionStdDev time.Duration
	// Timeouts counts RTO firings across all rounds; nonzero timeouts
	// are the mechanism of Incast collapse.
	Timeouts uint64
	// Drops counts bottleneck overflow drops.
	Drops uint64
	// MissedDeadlines counts worker responses that finished past their
	// deadline, and DeadlineMissRate normalizes it by the total number
	// of responses (0 when no deadline was configured).
	MissedDeadlines  int
	DeadlineMissRate float64

	// Events is the number of simulator events processed, for
	// throughput accounting.
	Events uint64

	// Metrics is the run's observability snapshot; nil unless
	// TestbedConfig.Metrics was set.
	Metrics *metrics.Snapshot
}

// RunQuery executes rounds of a synchronized query on the testbed:
// every worker sends bytesPerWorker to the aggregator simultaneously and
// the round ends when all responses are delivered. This is the paper's
// Incast experiment when bytesPerWorker is fixed (64 KB, Fig. 14) and the
// completion-time experiment when bytesPerWorker = 1 MB ÷ workers
// (Fig. 15).
func RunQuery(cfg TestbedConfig, bytesPerWorker int64, rounds int) (*QueryResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if bytesPerWorker <= 0 || rounds <= 0 {
		return nil, errors.New("core: bytesPerWorker and rounds must be positive")
	}
	tb, err := buildTestbed(cfg)
	if err != nil {
		return nil, err
	}
	qcfg := workload.QueryConfig{
		Workers:        tb.workers,
		Aggregator:     tb.aggregator,
		BytesPerWorker: bytesPerWorker,
		Rounds:         rounds,
		Gap:            cfg.Gap,
		TCP:            cfg.Protocol.TCP,
		Persistent:     !cfg.FreshConnections,
		StartJitter:    cfg.StartJitter,
		Deadline:       cfg.Deadline,
	}
	queries := workload.StartQueries(tb.engine, qcfg)

	// Generous horizon: every round can absorb several full backoff
	// chains before we declare the run wedged.
	horizon := time.Duration(rounds) * (10*time.Second + 4*time.Duration(cfg.Workers)*time.Millisecond)
	if err := tb.engine.RunFor(horizon); err != nil {
		return nil, err
	}
	if !queries.Done() {
		return nil, fmt.Errorf("core: query run incomplete after %v: %d/%d rounds",
			horizon, len(queries.Rounds()), rounds)
	}

	times := queries.CompletionTimes()
	goodputs := queries.GoodputsBps()
	res := &QueryResult{
		Protocol:         cfg.Protocol.Name,
		Workers:          cfg.Workers,
		Rounds:           len(queries.Rounds()),
		MeanGoodputBps:   stats.Mean(goodputs),
		MeanCompletion:   secondsToDuration(stats.Mean(times)),
		P95Completion:    secondsToDuration(stats.Quantile(times, 0.95)),
		MaxCompletion:    secondsToDuration(stats.Quantile(times, 1)),
		CompletionStdDev: secondsToDuration(stats.StdDev(times)),
		Timeouts:         queries.TotalTimeouts(),
		Drops:            tb.bneck.Stats().DroppedOverflow,
		MissedDeadlines:  queries.TotalMissedDeadlines(),
		Events:           tb.engine.Stats().Processed,
	}
	if cfg.Deadline > 0 {
		total := float64(res.Rounds * cfg.Workers)
		if total > 0 {
			res.DeadlineMissRate = float64(res.MissedDeadlines) / total
		}
	}
	if tb.obs != nil {
		res.Metrics = tb.obs.snapshot(tb.engine.Now())
	}
	return res, nil
}

// RunIncast is the Fig. 14 experiment: fixed 64 KB per worker.
func RunIncast(cfg TestbedConfig, rounds int) (*QueryResult, error) {
	return RunQuery(cfg, 64<<10, rounds)
}

// RunCompletionTime is the Fig. 15 experiment: 1 MB split evenly over the
// workers.
func RunCompletionTime(cfg TestbedConfig, rounds int) (*QueryResult, error) {
	per := int64(1<<20) / int64(cfg.Workers)
	if per <= 0 {
		return nil, errors.New("core: too many workers for 1 MB query")
	}
	return RunQuery(cfg, per, rounds)
}

// WorkerSweepPoint is one (n, result) sample of the Figs. 14–15 sweeps.
type WorkerSweepPoint struct {
	// Workers is the synchronized flow count.
	Workers int
	// Result is the query outcome at this count.
	Result *QueryResult
}

// SweepWorkers repeats run for each worker count, cloning base. Points run
// serially; use SweepWorkersParallel to spread them over goroutines.
func SweepWorkers(base TestbedConfig, workers []int, rounds int,
	run func(TestbedConfig, int) (*QueryResult, error)) ([]WorkerSweepPoint, error) {
	return SweepWorkersParallel(context.Background(), base, workers, rounds, 1, run)
}

// SweepWorkersParallel runs the sweep points concurrently on up to par
// goroutines (values < 1 mean GOMAXPROCS). Each point builds a private
// testbed seeded only by base.Seed, so results are byte-identical for any
// worker count; they are returned in the order of workers.
func SweepWorkersParallel(ctx context.Context, base TestbedConfig, workers []int, rounds, par int,
	run func(TestbedConfig, int) (*QueryResult, error)) ([]WorkerSweepPoint, error) {
	return runner.Map(ctx, len(workers), runner.Options{Workers: par},
		func(_ context.Context, i int) (WorkerSweepPoint, error) {
			cfg := base
			cfg.Workers = workers[i]
			res, err := run(cfg, rounds)
			if err != nil {
				return WorkerSweepPoint{}, fmt.Errorf("sweep workers=%d: %w", workers[i], err)
			}
			return WorkerSweepPoint{Workers: workers[i], Result: res}, nil
		})
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
