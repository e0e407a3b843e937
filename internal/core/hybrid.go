package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"dtdctcp/internal/fluid"
	"dtdctcp/internal/hybrid"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/stats"
	"dtdctcp/internal/workload"
)

// HybridConfig is the hybrid co-simulation scenario: BgFlows long-lived
// background flows share the dumbbell bottleneck with FgFlows foreground
// flows doing repeated fixed-size transfers. In hybrid mode (the
// default) the background flows are the fluid model of internal/fluid,
// coupled to the bottleneck port by internal/hybrid; with FullPacket
// they are real packet-level senders — the reference the conformance
// grid holds hybrid runs against.
type HybridConfig struct {
	// Protocol selects endpoints and queue law. Hybrid mode requires a
	// protocol with a marking law (the fluid model needs one).
	Protocol Protocol
	// BgFlows is the number of long-lived background flows.
	BgFlows int
	// FgFlows is the number of foreground flows; each repeatedly
	// transfers FgBytes with FgGap think time between transfers.
	FgFlows int
	FgBytes int64
	FgGap   time.Duration
	// Rate is the bottleneck link speed.
	Rate netsim.Rate
	// RTT is the zero-queue round-trip time.
	RTT time.Duration
	// BufferPkts is the bottleneck buffer in packets.
	BufferPkts int
	// Duration is the measured interval, after Warmup.
	Duration time.Duration
	// Warmup is excluded from queue statistics and foreground FCTs.
	Warmup time.Duration
	// QueueSampleEvery decimates the queue time series; zero disables
	// the series (aggregates are always collected).
	QueueSampleEvery time.Duration
	// FullPacket simulates the background flows packet-level instead of
	// coupling the fluid model — the conformance reference.
	FullPacket bool
	// Seed drives all randomness (start jitter).
	Seed int64
	// Metrics enables the observability registry snapshot. Collection
	// is pull-based: enabling it changes no event order and no result.
	Metrics bool
}

func (c HybridConfig) validate() error {
	switch {
	case c.BgFlows <= 0:
		return errors.New("core: BgFlows must be positive")
	case c.FgFlows < 0:
		return errors.New("core: FgFlows must not be negative")
	case c.FgFlows > 0 && c.FgBytes <= 0:
		return errors.New("core: FgBytes must be positive when FgFlows is set")
	case c.Rate <= 0:
		return errors.New("core: Rate must be positive")
	case c.RTT <= 0:
		return errors.New("core: RTT must be positive")
	case c.BufferPkts <= 0:
		return errors.New("core: BufferPkts must be positive")
	case c.Duration <= 0:
		return errors.New("core: Duration must be positive")
	case c.Warmup < 0:
		return errors.New("core: Warmup must not be negative")
	case !c.FullPacket && c.Protocol.MarkingLaw() == nil:
		return errors.New("core: hybrid mode requires a protocol with a marking law")
	default:
		return nil
	}
}

// fluidConfig maps the scenario onto the background fluid model.
func (c HybridConfig) fluidConfig() fluid.Config {
	ref := float64(c.Protocol.K)
	if c.Protocol.K2 > 0 {
		ref = float64(c.Protocol.K1+c.Protocol.K2) / 2
	}
	pktSize := c.Protocol.PacketSize()
	return fluid.Config{
		N:           float64(c.BgFlows),
		C:           c.Rate.BytesPerSecond() / float64(pktSize),
		D:           c.RTT.Seconds(),
		G:           c.Protocol.TCP.G,
		Law:         c.Protocol.MarkingLaw(),
		RTTRefQueue: ref,
		BufferLimit: float64(c.BufferPkts),
	}
}

// HybridResult aggregates one hybrid (or full-packet reference) run.
type HybridResult struct {
	// Protocol, Mode ("hybrid" or "packet"), BgFlows and FgFlows echo
	// the configuration.
	Protocol string `json:"protocol"`
	Mode     string `json:"mode"`
	BgFlows  int    `json:"bg_flows"`
	FgFlows  int    `json:"fg_flows"`

	// QueueMeanPkts and QueueStdPkts are time-weighted statistics of
	// the bottleneck's total occupancy — real packets plus the fluid
	// ambient contribution in hybrid mode — over the measured interval,
	// in packets. Min and Max bound the excursion.
	QueueMeanPkts float64 `json:"queue_mean_pkts"`
	QueueStdPkts  float64 `json:"queue_std_pkts"`
	QueueMinPkts  float64 `json:"queue_min_pkts"`
	QueueMaxPkts  float64 `json:"queue_max_pkts"`
	// QueueSeries is the decimated occupancy trace; nil when sampling
	// was disabled.
	QueueSeries *stats.Series `json:"-"`

	// OscPeriod is the dominant queue-oscillation period estimated by
	// autocorrelation on the post-warmup trace (zero when sampling was
	// disabled or no periodicity was found).
	OscPeriod     time.Duration `json:"osc_period_ns"`
	OscConfidence float64       `json:"osc_confidence"`

	// FluidFinal is the background model's final state; zero in packet
	// mode. CouplerTicks counts coupling exchanges.
	FluidFinal   fluid.State `json:"fluid_final"`
	CouplerTicks int         `json:"coupler_ticks"`

	// FgTransfers counts completed foreground transfers (warmup
	// included); FgFCTs lists post-warmup completion times in seconds,
	// in flow order, with mean and p99 precomputed.
	FgTransfers  int       `json:"fg_transfers"`
	FgFCTs       []float64 `json:"-"`
	FgFCTCount   int       `json:"fg_fct_count"`
	FgFCTMeanSec float64   `json:"fg_fct_mean_sec"`
	FgFCTP99Sec  float64   `json:"fg_fct_p99_sec"`

	// Marks and Drops count bottleneck CE marks and overflow drops over
	// the whole run; Timeouts counts sender RTOs (all senders).
	Marks    uint64 `json:"marks"`
	Drops    uint64 `json:"drops"`
	Timeouts uint64 `json:"timeouts"`
	// Events is the number of simulator events processed.
	Events uint64 `json:"events"`

	// Digest folds the queue statistics, trace, fluid state, and every
	// foreground FCT into one hex word; equal digests mean
	// byte-identical results.
	Digest string `json:"digest"`

	// Metrics is the observability snapshot; nil unless requested.
	Metrics *metrics.Snapshot `json:"-"`
}

// RunHybrid executes the scenario to completion and aggregates results.
func RunHybrid(cfg HybridConfig) (*HybridResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	engine := sim.NewEngine(cfg.Seed)
	// Foreground hosts first, then (packet mode only) background hosts,
	// so foreground flows get identical host identities in both modes.
	senders := cfg.FgFlows
	if cfg.FullPacket {
		senders += cfg.BgFlows
	}
	st, err := newStar(engine, cfg.Protocol, senders, cfg.Rate, cfg.RTT, cfg.BufferPkts)
	if err != nil {
		return nil, err
	}
	rcv, bneck := st.Receiver, st.Bottleneck
	fgHosts, bgHosts := st.Senders[:cfg.FgFlows], st.Senders[cfg.FgFlows:]
	pktSize := cfg.Protocol.PacketSize()

	var obs *observer
	if cfg.Metrics {
		obs = newObserver(engine, 0)
	}

	rec := netsim.NewQueueRecorder(pktSize, sim.FromDuration(cfg.QueueSampleEvery))
	rec.WarmupUntil = sim.FromDuration(cfg.Warmup)
	if obs != nil {
		qmon := obs.observePort("bottleneck", bneck, pktSize, cfg.BufferPkts)
		bneck.SetMonitor(netsim.MultiMonitor{rec, qmon})
	} else {
		bneck.SetMonitor(rec)
	}

	end := sim.FromDuration(cfg.Warmup + cfg.Duration)

	// Background load: fluid coupler in hybrid mode, real senders in
	// packet mode.
	var coupler *hybrid.Coupler
	var bg *workload.LongLived
	if cfg.FullPacket {
		bg = workload.StartLongLived(engine, workload.LongLivedConfig{
			Hosts:       bgHosts,
			Receiver:    rcv,
			TCP:         cfg.Protocol.TCP,
			BaseFlow:    1 << 20,
			StartJitter: cfg.RTT,
		})
	} else {
		coupler, err = hybrid.New(hybrid.Config{
			Fluid:   cfg.fluidConfig(),
			Port:    bneck,
			PktSize: pktSize,
			Horizon: cfg.Warmup + cfg.Duration,
		})
		if err != nil {
			return nil, err
		}
		coupler.Start(engine)
	}

	var fg *workload.Foreground
	if cfg.FgFlows > 0 {
		fg = workload.StartForeground(engine, workload.ForegroundConfig{
			Hosts:       fgHosts,
			Receiver:    rcv,
			Bytes:       cfg.FgBytes,
			Gap:         cfg.FgGap,
			TCP:         cfg.Protocol.TCP,
			BaseFlow:    1,
			StartJitter: cfg.RTT,
			Horizon:     cfg.Warmup + cfg.Duration,
			Warmup:      cfg.Warmup,
		})
	}

	if err := engine.RunUntil(end); err != nil {
		return nil, err
	}
	rec.Finish(end)

	res := &HybridResult{
		Protocol:      cfg.Protocol.Name,
		Mode:          "hybrid",
		BgFlows:       cfg.BgFlows,
		FgFlows:       cfg.FgFlows,
		QueueMeanPkts: rec.Mean(),
		QueueStdPkts:  rec.StdDev(),
		QueueMinPkts:  rec.Min(),
		QueueMaxPkts:  rec.Max(),
		QueueSeries:   rec.Series(),
		Marks:         bneck.Stats().Marked,
		Drops:         bneck.Stats().DroppedOverflow,
		Events:        engine.Stats().Processed,
	}
	if cfg.FullPacket {
		res.Mode = "packet"
	}
	if coupler != nil {
		res.FluidFinal = coupler.Stepper().State()
		res.CouplerTicks = coupler.Ticks()
	}
	if bg != nil {
		res.Timeouts += bg.Timeouts()
	}
	if fg != nil {
		res.FgTransfers = fg.Transfers()
		res.FgFCTs = fg.FCTs()
		res.FgFCTCount = len(res.FgFCTs)
		if res.FgFCTCount > 0 {
			res.FgFCTMeanSec = stats.Mean(res.FgFCTs)
			res.FgFCTP99Sec = stats.Quantile(res.FgFCTs, 0.99)
		}
		res.Timeouts += fg.Timeouts()
	}
	if res.QueueSeries != nil {
		period, conf := stats.EstimatePeriod(res.QueueSeries.After(cfg.Warmup.Seconds()))
		res.OscPeriod = time.Duration(period * float64(time.Second))
		res.OscConfidence = conf
	}
	res.Digest = res.digest()
	if obs != nil {
		res.Metrics = obs.snapshot(end)
	}
	return res, nil
}

// digest folds every deterministic result field into one FNV-1a word:
// the exact bit patterns of the queue aggregates and trace, the fluid
// state, and every foreground FCT. Two runs agree on the digest iff they
// agree on all of them — "same seed → same result, with metrics on or
// off" is a one-word comparison.
func (r *HybridResult) digest() string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	word(math.Float64bits(r.QueueMeanPkts))
	word(math.Float64bits(r.QueueStdPkts))
	word(math.Float64bits(r.QueueMinPkts))
	word(math.Float64bits(r.QueueMaxPkts))
	if r.QueueSeries != nil {
		word(r.QueueSeries.Hash64())
	}
	word(uint64(r.FluidFinal.Step))
	word(math.Float64bits(r.FluidFinal.W))
	word(math.Float64bits(r.FluidFinal.Alpha))
	word(math.Float64bits(r.FluidFinal.Q))
	word(uint64(r.CouplerTicks))
	word(uint64(r.FgTransfers))
	for _, fct := range r.FgFCTs {
		word(math.Float64bits(fct))
	}
	word(r.Marks)
	word(r.Drops)
	word(r.Timeouts)
	return fmt.Sprintf("%016x", h.Sum64())
}
