package core

import (
	"time"

	"dtdctcp/internal/chaos"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
	"dtdctcp/internal/workload"
)

// observer wires the metrics registry into one run's layers. All
// instrumentation is pull-based (CounterFunc/GaugeFunc over counters the
// layers already keep) except the queue-depth histogram, which rides the
// existing QueueMonitor notification — so enabling metrics changes no
// event order, draws no randomness, and costs nothing measurable on the
// hot path. The one exception is the optional sampler, whose periodic
// ticks are engine events; it is therefore gated separately by
// MetricsSampleEvery.
type observer struct {
	reg     *metrics.Registry
	sampler *metrics.Sampler
}

// newObserver builds a registry over the engine, with a sampler when
// sampleEvery is positive.
func newObserver(engine *sim.Engine, sampleEvery time.Duration) *observer {
	o := &observer{reg: metrics.NewRegistry()}
	metrics.InstrumentEngine(o.reg, engine)
	if sampleEvery > 0 {
		o.sampler = metrics.NewSampler(o.reg, engine, sampleEvery)
	}
	return o
}

// observePort registers per-port counters and a queue-depth histogram
// (in packets, linear buckets spanning the configured buffer). The
// returned monitor must be fanned into the port's QueueMonitor chain by
// the caller.
func (o *observer) observePort(name string, p *netsim.Port, pktSize, bufferPkts int) *metrics.QueueDepthMonitor {
	lbl := metrics.L("port", name)
	stat := p.Stats
	o.reg.CounterFunc("port_enqueued_total",
		"Packets accepted into the port queue.",
		func() uint64 { return stat().Enqueued }, lbl)
	o.reg.CounterFunc("port_dequeued_total",
		"Packets transmitted out of the port queue.",
		func() uint64 { return stat().Dequeued }, lbl)
	o.reg.CounterFunc("port_marked_total",
		"Packets CE-marked by the port's AQM.",
		func() uint64 { return stat().Marked }, lbl)
	o.reg.CounterFunc("port_dropped_overflow_total",
		"Packets dropped for lack of buffer.",
		func() uint64 { return stat().DroppedOverflow }, lbl)
	o.reg.CounterFunc("port_dropped_policy_total",
		"Packets dropped by the AQM policy.",
		func() uint64 { return stat().DroppedPolicy }, lbl)
	o.reg.CounterFunc("port_dropped_fault_total",
		"Packets lost to injected faults (down link or corruption).",
		func() uint64 { s := stat(); return s.DroppedLinkDown + s.DroppedCorrupt }, lbl)
	o.reg.CounterFunc("port_bytes_sent_total",
		"On-wire bytes transmitted.",
		func() uint64 { return stat().BytesSent }, lbl)
	o.reg.GaugeFunc("port_queue_pkts",
		"Instantaneous queue occupancy in packets.",
		func() float64 { return float64(p.QueueLen()) / float64(pktSize) }, lbl)

	// One bucket per buffer slot up to 64 buckets, so small buffers get
	// exact per-packet resolution and large ones stay compact.
	width := 1.0
	n := bufferPkts
	if n > 64 {
		width = float64(bufferPkts) / 64
		n = 64
	}
	hist := o.reg.Histogram("port_queue_depth_pkts",
		"Queue occupancy in packets, observed at every enqueue/dequeue/drop.",
		metrics.LinearBounds(width, width, n), lbl)
	return metrics.NewQueueDepthMonitor(hist, pktSize)
}

// observeUtilization registers the bottleneck utilization gauge:
// measured-interval goodput ÷ capacity, matching
// DumbbellResult.Utilization. bytesAtWarmup must point at the byte
// counter snapshot taken at the warmup boundary.
func (o *observer) observeUtilization(p *netsim.Port, bytesAtWarmup *uint64, capacityBytes float64) {
	o.reg.GaugeFunc("port_utilization",
		"Bottleneck goodput over capacity for the measured interval.",
		func() float64 {
			if capacityBytes <= 0 {
				return 0
			}
			return float64(p.Stats().BytesSent-*bytesAtWarmup) / capacityBytes
		}, metrics.L("port", "bottleneck"))
}

// observeFlows registers aggregate sender metrics: total segment and
// recovery counters, the ECE ratio, and gauges over mean cwnd and mean α.
func (o *observer) observeFlows(flows *workload.LongLived) {
	sum := func(pick func(s tcp.SenderStats) uint64) func() uint64 {
		return func() uint64 {
			var total uint64
			for _, snd := range flows.Senders {
				total += pick(snd.Stats())
			}
			return total
		}
	}
	o.reg.CounterFunc("tcp_segments_sent_total",
		"Data segments transmitted by all senders, retransmissions included.",
		sum(func(s tcp.SenderStats) uint64 { return s.SegmentsSent }))
	o.reg.CounterFunc("tcp_retransmissions_total",
		"Segments retransmitted by all senders.",
		sum(func(s tcp.SenderStats) uint64 { return s.Retransmissions }))
	o.reg.CounterFunc("tcp_fast_recoveries_total",
		"Entries into NewReno fast recovery across all senders.",
		sum(func(s tcp.SenderStats) uint64 { return s.FastRecoveries }))
	o.reg.CounterFunc("tcp_rto_total",
		"Retransmission-timeout firings across all senders.",
		sum(func(s tcp.SenderStats) uint64 { return s.Timeouts }))
	o.reg.CounterFunc("tcp_acks_received_total",
		"ACK segments processed across all senders.",
		sum(func(s tcp.SenderStats) uint64 { return s.AcksReceived }))
	o.reg.CounterFunc("tcp_ece_acks_total",
		"ACKs carrying an ECN echo across all senders.",
		sum(func(s tcp.SenderStats) uint64 { return s.ECEAcks }))
	o.reg.CounterFunc("tcp_alpha_updates_total",
		"Per-window DCTCP α recomputations across all senders.",
		sum(func(s tcp.SenderStats) uint64 { return s.AlphaUpdates }))
	o.reg.CounterFunc("tcp_ecn_reductions_total",
		"Window reductions triggered by ECN marks across all senders.",
		sum(func(s tcp.SenderStats) uint64 { return s.ECNReductions }))
	o.reg.GaugeFunc("tcp_ece_ratio",
		"Fraction of ACKs carrying an ECN echo (the marking probability senders see).",
		func() float64 {
			var acks, ece uint64
			for _, snd := range flows.Senders {
				s := snd.Stats()
				acks += s.AcksReceived
				ece += s.ECEAcks
			}
			if acks == 0 {
				return 0
			}
			return float64(ece) / float64(acks)
		})
	o.reg.GaugeFunc("tcp_alpha_mean",
		"Mean DCTCP α across all senders.",
		flows.MeanAlpha)
	o.reg.GaugeFunc("tcp_cwnd_mean_pkts",
		"Mean congestion window across all senders, in packets.",
		func() float64 {
			if len(flows.Senders) == 0 {
				return 0
			}
			var total float64
			for _, snd := range flows.Senders {
				total += snd.CwndPackets()
			}
			return total / float64(len(flows.Senders))
		})
}

// observeChaos registers the fault-action counter.
func (o *observer) observeChaos(ctl *chaos.Controller) {
	o.reg.CounterFunc("chaos_actions_executed_total",
		"Chaos plan actions that have fired (flap transitions and burst toggles count individually).",
		ctl.Executed)
}

// startSampler begins the periodic virtual-time sampler (if configured)
// tracking the bottleneck queue depth, mean α, and mean cwnd.
func (o *observer) startSampler(bneck *netsim.Port, pktSize int, flows *workload.LongLived) {
	if o.sampler == nil {
		return
	}
	o.sampler.Track("metrics_queue_pkts", func() float64 {
		return float64(bneck.QueueLen()) / float64(pktSize)
	})
	o.sampler.Track("metrics_alpha_mean", flows.MeanAlpha)
	o.sampler.Track("metrics_cwnd_mean_pkts", func() float64 {
		if len(flows.Senders) == 0 {
			return 0
		}
		var total float64
		for _, snd := range flows.Senders {
			total += snd.CwndPackets()
		}
		return total / float64(len(flows.Senders))
	})
	o.sampler.Start()
}

// snapshot freezes the registry at the run's virtual end time.
func (o *observer) snapshot(end sim.Time) *metrics.Snapshot {
	return o.reg.Snapshot(end.Seconds())
}
