package netsim

import (
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/invariant"
	"dtdctcp/internal/sim"
)

// QueueMonitor observes every occupancy change of one port's queue. The
// experiment runners attach monitors to the bottleneck port to collect the
// queue-length statistics of Figs. 1, 10 and 11.
type QueueMonitor interface {
	// QueueChanged is invoked after each enqueue or dequeue with the new
	// occupancy in bytes.
	QueueChanged(now sim.Time, qlenBytes int)
}

// PortTracer observes per-packet events at one port, for structured
// tracing. All hooks run synchronously on the simulation goroutine; keep
// them cheap, and copy out any packet fields needed later — pooled
// packets are recycled after the hook returns.
type PortTracer interface {
	// PacketEnqueued fires after a packet is accepted into the queue;
	// marked reports whether this port set CE on it.
	PacketEnqueued(now sim.Time, pkt *Packet, qlenBytes int, marked bool)
	// PacketDequeued fires when a packet enters transmission.
	PacketDequeued(now sim.Time, pkt *Packet, qlenBytes int)
	// PacketDropped fires for discarded packets; overflow distinguishes
	// buffer exhaustion from an AQM drop decision.
	PacketDropped(now sim.Time, pkt *Packet, qlenBytes int, overflow bool)
}

// FaultKind classifies a fault-induced packet loss (see FaultTracer).
type FaultKind int

// Fault-induced loss kinds.
const (
	// FaultCorrupt is a packet corrupted on the wire after serialization
	// (modelled as loss: the receiver would fail the checksum).
	FaultCorrupt FaultKind = iota
	// FaultLinkDown is a packet lost to a link in the down state: an
	// arrival while down, a flushed queue entry, or the packet whose
	// serialization the outage cut mid-transmission.
	FaultLinkDown
)

// String names the fault kind for traces and test output.
func (k FaultKind) String() string {
	switch k {
	case FaultCorrupt:
		return "corrupt"
	case FaultLinkDown:
		return "link-down"
	default:
		return "unknown"
	}
}

// FaultTracer is an optional extension of PortTracer for ports under
// fault injection: implementations additionally observe fault-induced
// losses and link state transitions. A PortTracer that does not implement
// it still sees fault losses through PacketDropped.
type FaultTracer interface {
	// PacketFaulted fires for packets lost to a fault rather than a
	// queue decision.
	PacketFaulted(now sim.Time, pkt *Packet, qlenBytes int, kind FaultKind)
	// LinkStateChanged fires after the port's link goes down or returns.
	LinkStateChanged(now sim.Time, up bool, qlenBytes int)
}

// PortStats counts per-port events.
type PortStats struct {
	// Enqueued and Dequeued count packets accepted into and transmitted
	// out of the queue.
	Enqueued, Dequeued uint64
	// Marked counts packets that left with the CE codepoint set by this
	// port.
	Marked uint64
	// DroppedOverflow counts packets dropped for lack of buffer.
	DroppedOverflow uint64
	// DroppedPolicy counts packets dropped by the AQM policy (RED in
	// drop mode).
	DroppedPolicy uint64
	// DroppedLinkDown counts packets lost to a down link: arrivals during
	// an outage, flushed queue entries, and serializations cut mid-packet.
	DroppedLinkDown uint64
	// DroppedCorrupt counts packets corrupted (and hence lost) on the
	// wire by SetCorruptProb.
	DroppedCorrupt uint64
	// BytesSent is the total on-wire bytes transmitted.
	BytesSent uint64
}

// Port is one output interface: a finite FIFO byte buffer drained at the
// link rate, with an AQM policy consulted at every arrival, followed by a
// fixed propagation delay to the peer node.
type Port struct {
	engine *sim.Engine
	net    *Network

	// rate and delay describe the attached link.
	rate  Rate
	delay time.Duration
	// buffer is the queue capacity in bytes (the packet in transmission
	// no longer counts against it, matching output-queued switches).
	buffer int
	policy aqm.Policy
	peer   Node

	queue    pktRing
	queueLen int // bytes
	// shared, when non-nil, replaces the static buffer bound with a
	// switch-wide dynamic-threshold pool (see SharedBuffer).
	shared  *SharedBuffer
	busy    bool
	stats   PortStats
	monitor QueueMonitor
	tracer  PortTracer

	// ambientBytes and ambientRate model co-simulated background traffic
	// sharing this port (see SetAmbient in ambient.go): a foreign queue
	// contribution biasing every occupancy the AQM and monitor see, and
	// the bandwidth that traffic consumes.
	ambientBytes int
	ambientRate  Rate

	// Runtime fault state (see SetDown / SetCorruptProb). txPkt and txRef
	// track the packet currently in serialization so a link-down can cut
	// it mid-transmission.
	down        bool
	corruptProb float64
	txPkt       *Packet
	txRef       sim.EventRef

	// txDoneFn and deliverFn are the transmit chain's event callbacks,
	// built once at construction. Scheduling them through ScheduleArg
	// with the packet as the argument keeps the per-packet event path
	// free of closure allocations.
	txDoneFn  func(any)
	deliverFn func(any)

	// srcKey is the stable domain index the port ships deliveries under
	// and xseq its monotone delivery counter; ComputeRoutes assigns
	// srcKey, and the engine breaks same-instant delivery ties by
	// (srcKey, xseq). srcKey < 0 means unassigned (a topology that never
	// computed routes), which falls back to unkeyed scheduling.
	srcKey int
	xseq   uint64
}

// PortConfig bundles the parameters of one directed link attachment.
type PortConfig struct {
	// Rate is the link speed.
	Rate Rate
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Buffer is the queue capacity in bytes.
	Buffer int
	// Policy is the queue law; nil means DropTail.
	Policy aqm.Policy
}

func newPort(net *Network, cfg PortConfig, peer Node) *Port {
	policy := cfg.Policy
	if policy == nil {
		policy = aqm.NewDropTail()
	}
	p := &Port{
		engine: net.engine,
		net:    net,
		rate:   cfg.Rate,
		delay:  cfg.Delay,
		buffer: cfg.Buffer,
		policy: policy,
		peer:   peer,
		queue:  pktRing{buf: make([]*Packet, ringInitialCap)},
		srcKey: -1,
	}
	//dtlint:hotpath
	p.deliverFn = func(arg any) { p.peer.Receive(arg.(*Packet)) }
	//dtlint:hotpath
	p.txDoneFn = func(arg any) {
		pkt := arg.(*Packet)
		p.txPkt = nil
		p.txRef = sim.EventRef{}
		// Wire corruption is decided once serialization completes: the
		// packet occupied the link but never arrives intact.
		if p.corruptProb > 0 && p.engine.Rand().Float64() < p.corruptProb {
			p.dropFault(pkt, FaultCorrupt)
		} else {
			p.ship(pkt)
		}
		p.transmitNext()
	}
	return p
}

// ship launches a serialized packet onto the wire: arrival at the peer
// after the propagation delay. The delivery is stamped with the port's
// stable (srcKey, xseq) identity, so a same-instant arrival tie between
// two ports' deliveries is decided by that topology-derived key, never by
// the global scheduling interleaving.
//
//dtlint:hotpath
func (p *Port) ship(pkt *Packet) {
	if p.srcKey < 0 {
		// Routes never computed: no stable identity to ship under.
		p.engine.AfterArg(p.delay, p.deliverFn, pkt)
		return
	}
	p.engine.ScheduleSrcArg(p.engine.Now().Add(p.delay), p.srcKey, p.xseq, p.deliverFn, pkt)
	p.xseq++
}

// SetMonitor attaches a queue monitor; pass nil to detach.
func (p *Port) SetMonitor(m QueueMonitor) { p.monitor = m }

// SetTracer attaches a per-packet tracer; pass nil to detach.
func (p *Port) SetTracer(t PortTracer) { p.tracer = t }

// Stats returns a copy of the port's counters.
func (p *Port) Stats() PortStats { return p.stats }

// QueueLen returns the instantaneous queue occupancy in bytes.
func (p *Port) QueueLen() int { return p.queueLen }

// QueuePackets returns the number of queued packets.
func (p *Port) QueuePackets() int { return p.queue.len() }

// Policy returns the attached AQM policy.
func (p *Port) Policy() aqm.Policy { return p.policy }

// Rate returns the link speed.
func (p *Port) Rate() Rate { return p.rate }

// Delay returns the one-way propagation delay.
func (p *Port) Delay() time.Duration { return p.delay }

// Buffer returns the queue capacity in bytes. For a pooled port this is
// the configured static size, which admission no longer consults — see
// Shared.
func (p *Port) Buffer() int { return p.buffer }

// Shared returns the port's shared-buffer pool, or nil for a port with a
// private static buffer.
func (p *Port) Shared() *SharedBuffer { return p.shared }

// addQueued moves the port's byte counter by delta, mirroring the change
// into the shared pool's occupancy when the port is pooled. Every
// enqueue/dequeue path funnels through here so the two counters cannot
// drift.
//
//dtlint:hotpath
func (p *Port) addQueued(delta int) {
	p.queueLen += delta
	if p.shared != nil {
		p.shared.used += delta
	}
}

// Down reports whether the link is administratively down.
func (p *Port) Down() bool { return p.down }

// CorruptProb returns the per-packet wire corruption probability.
func (p *Port) CorruptProb() float64 { return p.corruptProb }

// Peer returns the node at the far end of the link.
func (p *Port) Peer() Node { return p.peer }

// SetRate changes the link speed at the current instant. The packet
// currently in serialization keeps its old timing; every later packet
// clocks out at the new rate. Non-positive rates are ignored.
func (p *Port) SetRate(r Rate) {
	if r > 0 {
		p.rate = r
	}
}

// SetDelay changes the propagation delay. Packets already launched keep
// their old arrival times (the wire does not reorder); negative delays
// are ignored.
func (p *Port) SetDelay(d time.Duration) {
	if d >= 0 {
		p.delay = d
	}
}

// SetBuffer resizes the queue capacity. Shrinking below the current
// occupancy drops packets from the tail of the queue (the most recent
// arrivals — what a switch reconfiguring its buffer carve-up discards)
// until the occupancy fits; those count as overflow drops. On a pooled
// port the mutation resizes the whole shared pool instead, evicting from
// the longest member queue (chaos buffer faults compose with buffer
// sharing this way). Non-positive sizes are ignored.
func (p *Port) SetBuffer(bytes int) {
	if bytes <= 0 {
		return
	}
	if p.shared != nil {
		p.shared.Resize(bytes)
		return
	}
	p.buffer = bytes
	if p.queueLen <= p.buffer {
		return
	}
	for p.queueLen > p.buffer && p.queue.len() > 0 {
		pkt := p.queue.popTail()
		p.addQueued(-pkt.Size)
		p.policy.OnDeparture(p.engine.Now(), p.totalQueueLen())
		p.drop(pkt, true)
	}
	p.checkConservation()
	p.notifyMonitor()
}

// SetCorruptProb sets the probability that a packet is corrupted (and so
// lost) after serialization. Randomness comes from the engine's seeded
// source, so corruption is a pure function of the run seed. The value is
// clamped to [0, 1].
func (p *Port) SetCorruptProb(prob float64) {
	switch {
	case prob < 0:
		prob = 0
	case prob > 1:
		prob = 1
	}
	p.corruptProb = prob
}

// SetDown changes the link's administrative state. Going down always cuts
// the packet currently in serialization (it is lost mid-transmission);
// flush additionally discards every queued packet, while flush=false keeps
// the queue intact to drain when the link returns. While down, arriving
// packets are dropped. Coming up resumes transmission of whatever is
// queued; flush is ignored on the way up.
//
//dtlint:hotpath
func (p *Port) SetDown(down, flush bool) {
	if down == p.down {
		if down && flush {
			p.flushQueue()
		}
		return
	}
	p.down = down
	if down {
		p.txRef.Cancel()
		p.txRef = sim.EventRef{}
		if p.txPkt != nil {
			p.dropFault(p.txPkt, FaultLinkDown)
			p.txPkt = nil
		}
		p.busy = false
		if flush {
			p.flushQueue()
		}
	}
	if ft, ok := p.tracer.(FaultTracer); ok {
		ft.LinkStateChanged(p.engine.Now(), !down, p.queueLen)
	}
	if !down && p.queue.len() > 0 {
		p.transmitNext()
	}
}

// flushQueue discards every queued packet as a link-down loss.
//
//dtlint:hotpath
func (p *Port) flushQueue() {
	for p.queue.len() > 0 {
		pkt := p.queue.pop()
		p.addQueued(-pkt.Size)
		p.policy.OnDeparture(p.engine.Now(), p.totalQueueLen())
		p.dropFault(pkt, FaultLinkDown)
	}
	p.checkConservation()
	p.notifyMonitor()
}

// drop discards a packet: count, trace, recycle.
//
//dtlint:hotpath
func (p *Port) drop(pkt *Packet, overflow bool) {
	if overflow {
		p.stats.DroppedOverflow++
	} else {
		p.stats.DroppedPolicy++
	}
	if p.tracer != nil {
		p.tracer.PacketDropped(p.engine.Now(), pkt, p.queueLen, overflow)
	}
	p.net.FreePacket(pkt)
}

// dropFault discards a packet lost to a fault (corruption, dead link):
// count, trace — through FaultTracer when the tracer implements it, as a
// policy drop otherwise — and recycle to the network's free list.
//
//dtlint:hotpath
func (p *Port) dropFault(pkt *Packet, kind FaultKind) {
	switch kind {
	case FaultCorrupt:
		p.stats.DroppedCorrupt++
	case FaultLinkDown:
		p.stats.DroppedLinkDown++
	}
	if ft, ok := p.tracer.(FaultTracer); ok {
		ft.PacketFaulted(p.engine.Now(), pkt, p.queueLen, kind)
	} else if p.tracer != nil {
		p.tracer.PacketDropped(p.engine.Now(), pkt, p.queueLen, false)
	}
	p.net.FreePacket(pkt)
}

// Send offers a packet to the port. The AQM policy is consulted with the
// occupancy at arrival; buffer overflow always drops. A dropped packet is
// recycled here — the caller must not touch it after Send returns.
//
//dtlint:hotpath
func (p *Port) Send(pkt *Packet) {
	if p.down {
		p.dropFault(pkt, FaultLinkDown)
		return
	}
	verdict := p.policy.OnArrival(p.engine.Now(), p.totalQueueLen(), pkt.Size)
	if verdict == aqm.Drop {
		p.drop(pkt, false)
		return
	}
	overflow := p.totalQueueLen()+pkt.Size > p.buffer
	if p.shared != nil {
		// Pooled port: tail-drop against the dynamic allowance
		// T = α·(B − ΣQ) instead of the static per-port bound.
		overflow = !p.shared.admit(p.queueLen, pkt.Size)
	}
	if overflow {
		// The policy saw an arrival that never materialized; inform it
		// of the unchanged occupancy so trend estimators stay honest.
		p.policy.OnDeparture(p.engine.Now(), p.totalQueueLen())
		p.drop(pkt, true)
		return
	}
	marked := false
	if verdict == aqm.AcceptMark {
		switch {
		case pkt.ECT:
			pkt.CE = true
			marked = true
			p.stats.Marked++
		case markSubstitutesDrop(p.policy):
			// RFC 3168 §5: a law whose mark replaces a drop must
			// drop non-ECT traffic when it signals congestion.
			p.policy.OnDeparture(p.engine.Now(), p.totalQueueLen())
			p.drop(pkt, false)
			return
		}
	}
	pkt.EnqueuedAt = p.engine.Now()
	p.queue.push(pkt)
	p.addQueued(pkt.Size)
	p.stats.Enqueued++
	p.checkConservation()
	if p.tracer != nil {
		p.tracer.PacketEnqueued(p.engine.Now(), pkt, p.queueLen, marked)
	}
	p.notifyMonitor()
	if !p.busy {
		p.transmitNext()
	}
}

//dtlint:hotpath
func (p *Port) transmitNext() {
	var pkt *Packet
	for {
		if p.down || p.queue.len() == 0 {
			p.busy = false
			return
		}
		p.busy = true
		pkt = p.queue.pop()
		p.addQueued(-pkt.Size)
		p.checkConservation()

		// Dequeue-time queue laws (CoDel) may drop or mark here.
		dq, ok := p.policy.(aqm.DequeuePolicy)
		if !ok {
			break
		}
		sojourn := (p.engine.Now() - pkt.EnqueuedAt).Duration()
		verdict := dq.OnDequeue(p.engine.Now(), sojourn, p.totalQueueLen())
		if verdict == aqm.Drop {
			p.drop(pkt, false)
			p.notifyMonitor()
			continue
		}
		if verdict == aqm.AcceptMark {
			if pkt.ECT {
				if !pkt.CE {
					pkt.CE = true
					p.stats.Marked++
				}
			} else if markSubstitutesDrop(p.policy) {
				p.drop(pkt, false)
				p.notifyMonitor()
				continue
			}
		}
		break
	}
	p.stats.Dequeued++
	p.stats.BytesSent += uint64(pkt.Size)
	p.policy.OnDeparture(p.engine.Now(), p.totalQueueLen())
	if p.tracer != nil {
		p.tracer.PacketDequeued(p.engine.Now(), pkt, p.queueLen)
	}
	p.notifyMonitor()

	p.txPkt = pkt
	p.txRef = p.engine.AfterArg(p.serializationRate(pkt.Size).Serialization(pkt.Size), p.txDoneFn, pkt)
}

// markSubstitutesDrop reports whether the policy's marks stand in for
// drops (RFC 3168 §5 handling of non-ECT packets).
//
//dtlint:hotpath
func markSubstitutesDrop(pol aqm.Policy) bool {
	ls, ok := pol.(aqm.LossSubstituting)
	return ok && ls.MarkSubstitutesDrop()
}

//dtlint:hotpath
func (p *Port) notifyMonitor() {
	if p.monitor != nil {
		p.monitor.QueueChanged(p.engine.Now(), p.totalQueueLen())
	}
}

// checkConservation asserts, under -tags invariants, that the byte counter
// the AQM policies see agrees with the packets actually queued and stays
// inside the physical buffer. The O(len(queue)) walk only exists in
// invariants builds.
func (p *Port) checkConservation() {
	if !invariant.Enabled {
		return
	}
	invariant.Assert(p.queueLen >= 0, "netsim: negative queue occupancy %d on port to %s",
		p.queueLen, p.peer.Name())
	if p.shared == nil {
		invariant.Assert(p.queueLen <= p.buffer, "netsim: occupancy %d exceeds buffer %d on port to %s",
			p.queueLen, p.buffer, p.peer.Name())
	} else {
		p.shared.checkConservation()
	}
	sum := 0
	for i := 0; i < p.queue.len(); i++ {
		sum += p.queue.at(i).Size
	}
	invariant.Assert(sum == p.queueLen, "netsim: byte-count drift: queued packets hold %d bytes, counter says %d",
		sum, p.queueLen)
}
