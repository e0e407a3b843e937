package main

import (
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// metricSpec declares one reported metric. For a per-layer metric,
// target and on name the end-to-end metric it should move and the
// workload it moves on.
type metricSpec struct {
	name, unit, better string
	target, on         string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricSpec{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are the metrics of a traced run. Layers a workload does not
// exercise report zero there (no fluid steps on the dumbbell, no
// reference model outside hybrid).
var perLayer = []metricSpec{
	// Module shares of sampled CPU in the traced passes.
	{"sim.self_frac", "fraction", "lower", "wall_s", "fabric"},
	{"netsim.self_frac", "fraction", "lower", "wall_s", "fabric"},
	{"tcp.self_frac", "fraction", "lower", "wall_s", "dumbbell"},
	{"aqm.self_frac", "fraction", "lower", "wall_s", "dumbbell"},
	{"workload.self_frac", "fraction", "lower", "wall_s", "dumbbell"},
	{"topo.self_frac", "fraction", "lower", "setup_s", "fabric"},
	{"flowgen.self_frac", "fraction", "lower", "wall_s", "fabric"},
	{"fluid.self_frac", "fraction", "lower", "wall_s", "hybrid"},
	{"hybrid.self_frac", "fraction", "lower", "wall_s", "hybrid"},
	{"metrics.self_frac", "fraction", "lower", "wall_s", "fabric"},
	{"stats.self_frac", "fraction", "lower", "wall_s", "dumbbell"},
	{"core.self_frac", "fraction", "lower", "wall_s", "dumbbell"},
	{"runtime.self_frac", "fraction", "lower", "wall_s", "fabric"},

	// Counters from the traced pass's metrics snapshot and public stats.
	{"sim.events", "count", "lower", "wall_s", "dumbbell"},
	{"sim.useful_ratio", "ratio", "higher", "wall_s", "dumbbell"},
	{"sim.pending_max", "count", "lower", "wall_s", "fabric"},
	{"sim.free_hit_rate", "ratio", "higher", "wall_s", "fabric"},
	{"netsim.enqueued", "count", "lower", "wall_s", "fabric"},
	{"netsim.marks", "count", "lower", "wall_s", "dumbbell"},
	{"netsim.drops", "count", "lower", "wall_s", "fabric"},
	{"tcp.acks", "count", "lower", "wall_s", "dumbbell"},
	{"tcp.rtos", "count", "lower", "wall_s", "fabric"},
	{"tcp.retransmits", "count", "lower", "wall_s", "fabric"},
	{"fluid.steps", "count", "lower", "wall_s", "hybrid"},
	{"hybrid.ticks", "count", "lower", "wall_s", "hybrid"},
	{"hybrid.event_ratio", "ratio", "higher", "wall_s", "hybrid"},
	{"hybrid.queue_err", "ratio", "lower", "wall_s", "hybrid"},
	{"hybrid.fct_err", "ratio", "lower", "wall_s", "hybrid"},
	{"flowgen.completed", "count", "higher", "wall_s", "fabric"},
	{"runtime.allocs_per_event", "count", "lower", "peak_rss_mb", "fabric"},
	{"runtime.gc_frac", "fraction", "lower", "wall_s", "fabric"},

	// Spans around the benchmark's own calls into the layers.
	{"span.setup_s", "s", "lower", "setup_s", "fabric"},
	{"span.run_s", "s", "lower", "wall_s", "dumbbell"},
	{"span.reference_s", "s", "lower", "wall_s", "hybrid"},
	{"span.verify_s", "s", "lower", "wall_s", "dumbbell"},
	{"trace.overhead_frac", "fraction", "lower", "wall_s", "dumbbell"},

	// Layer drivers: host time per call into one public entry point.
	{"sim.schedule_run_ns.shallow", "ns", "lower", "wall_s", "dumbbell"},
	{"sim.schedule_run_ns.deep", "ns", "lower", "wall_s", "fabric"},
	{"netsim.forward_ns", "ns", "lower", "wall_s", "dumbbell"},
	{"netsim.route_ns", "ns", "lower", "wall_s", "fabric"},
	{"tcp.ack_ns", "ns", "lower", "wall_s", "dumbbell"},
	{"aqm.verdict_ns.single", "ns", "lower", "wall_s", "fabric"},
	{"aqm.verdict_ns.double", "ns", "lower", "wall_s", "dumbbell"},
	{"fluid.step_ns", "ns", "lower", "wall_s", "hybrid"},
	{"flowgen.sample_ns", "ns", "lower", "setup_s", "fabric"},
	{"flowgen.bytes_per_flow", "B", "lower", "peak_rss_mb", "fabric"},
	{"metrics.observe_ns", "ns", "lower", "wall_s", "fabric"},
}

func unitOf(name string) string {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range specs {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// tcpTap watches host uplinks, where every segment a transport emits
// enters the network, and counts ACKs and retransmitted data: a data
// segment starting below the highest sequence its flow has already sent.
type tcpTap struct {
	acks, retransmits uint64
	sent              map[netsim.FlowID]int64
}

func newTCPTap() *tcpTap { return &tcpTap{sent: map[netsim.FlowID]int64{}} }

func (t *tcpTap) emitted(pkt *netsim.Packet) {
	if pkt.IsAck {
		t.acks++
		return
	}
	end := pkt.Seq + int64(pkt.PayloadLen)
	high, seen := t.sent[pkt.Flow]
	if seen && pkt.Seq < high {
		t.retransmits++
	}
	if !seen || end > high {
		t.sent[pkt.Flow] = end
	}
}

func (t *tcpTap) PacketEnqueued(_ sim.Time, pkt *netsim.Packet, _ int, _ bool) { t.emitted(pkt) }
func (t *tcpTap) PacketDropped(_ sim.Time, pkt *netsim.Packet, _ int, _ bool)  { t.emitted(pkt) }
func (t *tcpTap) PacketDequeued(sim.Time, *netsim.Packet, int)                 {}
