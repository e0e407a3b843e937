package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/runner"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/topo"
)

// FabricConfig is a trace-driven workload on a multi-tier fabric: flows
// drawn from an empirical size CDF arrive open-loop at a fraction of
// the fabric's bisection bandwidth, and completion times are bucketed
// small/medium/large.
type FabricConfig struct {
	// Protocol selects endpoints and the queue law on every fabric port.
	Protocol Protocol
	// Topology is "fattree" (K-ary) or "leafspine".
	Topology string
	// K is the fat-tree arity (even, ≥ 2); used when Topology is
	// "fattree".
	K int
	// Leaves, Spines, HostsPerLeaf shape the leaf-spine fabric; used
	// when Topology is "leafspine".
	Leaves, Spines, HostsPerLeaf int
	// Rate is the link speed of every link (hosts and fabric).
	Rate netsim.Rate
	// HopDelay is the one-way propagation delay of every link.
	HopDelay time.Duration
	// BufferPkts is each port's buffer in packets.
	BufferPkts int
	// CDF is the flow-size distribution.
	CDF *flowgen.CDF
	// Load is the offered load as a fraction of bisection bandwidth.
	Load float64
	// Flows is the trace length.
	Flows int
	// Matrix is the traffic pattern (default random).
	Matrix flowgen.Matrix
	// Drain is how long the run continues past the last arrival so
	// in-flight transfers can finish (default 2 s).
	Drain time.Duration
	// SmallMax and LargeMin bound the FCT size buckets in bytes:
	// small ≤ SmallMax < medium < LargeMin ≤ large. Defaults follow the
	// DCTCP paper's convention, 100 KB and 1 MB.
	SmallMax, LargeMin int64
	// Seed drives all randomness: trace generation and the ECMP salt.
	Seed int64
	// Metrics attaches the observability registry: the result carries a
	// dtmetrics/v1 snapshot with per-bucket FCT histograms, tier queue
	// histograms, and engine counters.
	Metrics bool
}

func (c FabricConfig) validate() error {
	switch {
	case c.Topology != "fattree" && c.Topology != "leafspine":
		return fmt.Errorf("core: unknown topology %q (fattree, leafspine)", c.Topology)
	case c.Rate <= 0:
		return errors.New("core: Rate must be positive")
	case c.HopDelay <= 0:
		return errors.New("core: HopDelay must be positive")
	case c.BufferPkts <= 0:
		return errors.New("core: BufferPkts must be positive")
	case c.CDF == nil:
		return errors.New("core: CDF must be set")
	case c.Load <= 0:
		return errors.New("core: Load must be positive")
	case c.Flows <= 0:
		return errors.New("core: Flows must be positive")
	default:
		return nil
	}
}

// QueueSummary aggregates one switch tier's egress-queue depth samples
// (one observation per enqueue/dequeue, in packets) over the whole run.
type QueueSummary struct {
	// Samples counts observations across every port of the tier.
	Samples uint64 `json:"samples"`
	// MeanPkts and MaxPkts summarize the merged distribution.
	MeanPkts float64 `json:"mean_pkts"`
	MaxPkts  float64 `json:"max_pkts"`
	// P50Pkts and P99Pkts are histogram-interpolated quantiles.
	P50Pkts float64 `json:"p50_pkts"`
	P99Pkts float64 `json:"p99_pkts"`
}

func summarize(h *metrics.Histogram) QueueSummary {
	return QueueSummary{
		Samples:  h.Count(),
		MeanPkts: h.Mean(),
		MaxPkts:  h.Max(),
		P50Pkts:  h.Quantile(0.50),
		P99Pkts:  h.Quantile(0.99),
	}
}

// FabricResult aggregates one fabric run.
type FabricResult struct {
	// Protocol, Topology, Hosts, Load echo the configuration.
	Protocol string  `json:"protocol"`
	Topology string  `json:"topology"`
	Hosts    int     `json:"hosts"`
	Load     float64 `json:"load"`

	// Flows and Completed count the trace and its finished transfers.
	Flows     int `json:"flows"`
	Completed int `json:"completed"`
	// FCT holds per-bucket completion-time percentiles in
	// small/medium/large order (exact nearest-rank, not interpolated).
	FCT []flowgen.BucketStats `json:"fct"`
	// Digest folds the whole trace and every FCT into one word
	// (hex-encoded); equal digests mean byte-identical results.
	Digest string `json:"digest"`

	// CoreQueue and AggQueue summarize queue depths at the fabric's
	// bottleneck tiers; AggQueue covers leaf→spine uplinks on a
	// leaf-spine fabric.
	CoreQueue QueueSummary `json:"core_queue"`
	AggQueue  QueueSummary `json:"agg_queue"`

	// Marks and Drops count CE marks and overflow drops across every
	// switch port; the rates normalize by switch-port enqueues.
	Marks    uint64  `json:"marks"`
	Drops    uint64  `json:"drops"`
	MarkRate float64 `json:"mark_rate"`
	DropRate float64 `json:"drop_rate"`

	// Timeouts and Retransmissions sum over every connection.
	Timeouts        uint64 `json:"timeouts"`
	Retransmissions uint64 `json:"retransmissions"`
	// Events is the number of simulator events processed.
	Events uint64 `json:"events"`

	// Metrics is the observability snapshot; nil unless requested.
	Metrics *metrics.Snapshot `json:"-"`
}

// RunFabric executes the scenario to completion and aggregates results.
func RunFabric(cfg FabricConfig) (*FabricResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 2 * time.Second
	}
	if cfg.SmallMax <= 0 {
		cfg.SmallMax = 100_000
	}
	if cfg.LargeMin <= cfg.SmallMax {
		cfg.LargeMin = 1_000_000
	}

	engine := sim.NewEngine(cfg.Seed)
	nw := netsim.NewNetwork(engine)

	pktSize := cfg.Protocol.PacketSize()
	link := topo.LinkSpec{
		Rate:        cfg.Rate,
		Delay:       cfg.HopDelay,
		BufferBytes: cfg.BufferPkts * pktSize,
	}
	tcfg := topo.Config{HostLink: link, FabricLink: link, Policy: cfg.Protocol.NewPolicy}
	var fab *topo.Fabric
	var err error
	if cfg.Topology == "fattree" {
		fab, err = topo.FatTree(nw, cfg.K, tcfg)
	} else {
		fab, err = topo.LeafSpine(nw, cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf, tcfg)
	}
	if err != nil {
		return nil, err
	}

	// Per-port depth histograms, one bucket per buffer slot capped at
	// 64, merged into tier aggregates in port order after the run.
	bucketW := float64(cfg.BufferPkts) / 64
	if bucketW < 1 {
		bucketW = 1
	}
	bounds := metrics.LinearBounds(bucketW, bucketW, 64)
	observe := func(ports []*netsim.Port) []*metrics.Histogram {
		hists := make([]*metrics.Histogram, len(ports))
		for i, p := range ports {
			hists[i] = metrics.NewHistogram(bounds)
			p.SetMonitor(metrics.NewQueueDepthMonitor(hists[i], pktSize))
		}
		return hists
	}
	coreHists := observe(fab.CorePorts())
	aggHists := observe(fab.AggPorts())

	// The workload draws the entire trace from the engine's stream
	// before constructing endpoints.
	w, err := flowgen.Start(fab.Hosts, flowgen.Config{
		CDF:         cfg.CDF,
		Load:        cfg.Load,
		CapacityBps: fab.BisectionBps(),
		Flows:       cfg.Flows,
		Matrix:      cfg.Matrix,
		TCP:         cfg.Protocol.TCP,
	})
	if err != nil {
		return nil, err
	}

	end := w.LastArrival().Add(cfg.Drain)
	if err := engine.RunUntil(end); err != nil {
		return nil, err
	}

	res := &FabricResult{
		Protocol:        cfg.Protocol.Name,
		Topology:        fab.Kind,
		Hosts:           len(fab.Hosts),
		Load:            cfg.Load,
		Flows:           cfg.Flows,
		Completed:       w.Completed(),
		FCT:             w.FCTStats(cfg.SmallMax, cfg.LargeMin),
		Digest:          fmt.Sprintf("%016x", w.Digest()),
		Timeouts:        w.TotalTimeouts(),
		Retransmissions: w.TotalRetransmissions(),
		Events:          engine.Stats().Processed,
	}

	core := metrics.NewHistogram(bounds)
	for _, h := range coreHists {
		core.Merge(h)
	}
	agg := metrics.NewHistogram(bounds)
	for _, h := range aggHists {
		agg.Merge(h)
	}
	res.CoreQueue = summarize(core)
	res.AggQueue = summarize(agg)

	var enq uint64
	for _, sw := range nw.Switches() {
		for i := 0; i < sw.Ports(); i++ {
			st := sw.Port(i).Stats()
			res.Marks += st.Marked
			res.Drops += st.DroppedOverflow
			enq += st.Enqueued
		}
	}
	if enq > 0 {
		res.MarkRate = float64(res.Marks) / float64(enq)
		res.DropRate = float64(res.Drops) / float64(enq)
	}

	if cfg.Metrics {
		reg := metrics.NewRegistry()
		metrics.InstrumentEngine(reg, engine)
		w.RecordFCT(reg, cfg.SmallMax, cfg.LargeMin)
		reg.Histogram("fabric_queue_pkts", "egress queue depth by switch tier",
			bounds, metrics.L("tier", "core")).Merge(core)
		reg.Histogram("fabric_queue_pkts", "egress queue depth by switch tier",
			bounds, metrics.L("tier", "agg")).Merge(agg)
		res.Metrics = reg.Snapshot(end.Seconds())
	}

	w.Cleanup()
	return res, nil
}

// LoadSweepPoint is one (load, result) sample of a load sweep.
type LoadSweepPoint struct {
	// Load is the offered load fraction.
	Load float64
	// Result is the fabric outcome at this load.
	Result *FabricResult
}

// SweepLoads runs the fabric at each load factor, reusing every other
// parameter of base.
func SweepLoads(base FabricConfig, loads []float64) ([]LoadSweepPoint, error) {
	return SweepLoadsParallel(context.Background(), base, loads, 1)
}

// SweepLoadsParallel runs the sweep points concurrently on up to
// workers goroutines (values < 1 mean GOMAXPROCS). Every point builds a
// private engine seeded only by base.Seed, so results are
// byte-identical for any worker count; they are returned in load order.
func SweepLoadsParallel(ctx context.Context, base FabricConfig, loads []float64, workers int) ([]LoadSweepPoint, error) {
	return runner.Map(ctx, len(loads), runner.Options{Workers: workers},
		func(_ context.Context, i int) (LoadSweepPoint, error) {
			cfg := base
			cfg.Load = loads[i]
			res, err := RunFabric(cfg)
			if err != nil {
				return LoadSweepPoint{}, fmt.Errorf("sweep load=%.2f: %w", loads[i], err)
			}
			return LoadSweepPoint{Load: loads[i], Result: res}, nil
		})
}
