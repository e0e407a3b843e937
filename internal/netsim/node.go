package netsim

import (
	"fmt"

	"dtdctcp/internal/sim"
)

// Node is anything packets can arrive at: a switch or a host.
type Node interface {
	// ID returns the node's identifier within its network.
	ID() NodeID
	// Receive handles a packet that finished propagation on an inbound
	// link.
	Receive(pkt *Packet)
	// Name returns a human-readable label for traces.
	Name() string
}

// Endpoint is a transport attached to a host; the host delivers every
// packet of the endpoint's flow to it.
type Endpoint interface {
	// Deliver hands the endpoint an arrived packet.
	Deliver(pkt *Packet)
}

// Switch is an output-queued store-and-forward switch with static routes.
type Switch struct {
	id    NodeID
	name  string
	net   *Network
	ports []*Port
	// portIdx maps a directly attached peer to its port index, built at
	// wiring time so PortTo and route computation stay O(1) per lookup
	// even on fat-tree switches with dozens of ports.
	portIdx map[NodeID]int
	// routes maps destination NodeID (dense, so a slice index) → output
	// port index; −1 means no route.
	routes []int32
	// ecmp lists, per destination NodeID, every equal-cost egress port
	// when there is more than one shortest path; an empty entry means the
	// single entry in routes is the only choice, and the table stays nil
	// when no destination has a choice. Filled by ComputeRoutesECMP,
	// read-only afterwards. Sets are ordered by port index so path
	// selection is a pure function of (hashSalt, switch id, flow id).
	ecmp [][]int32
	// hashSalt seeds the ECMP flow hash; drawn once per topology from
	// the engine's seeded source so path placement varies with the run
	// seed.
	hashSalt uint64
	// droppedNoRoute counts packets with no matching route.
	droppedNoRoute uint64
}

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

// Name implements Node.
func (s *Switch) Name() string { return s.name }

// Port returns the i-th port in attachment order.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// Ports returns the number of attached ports.
func (s *Switch) Ports() int { return len(s.ports) }

// PortTo returns the port whose link leads directly to peer, or nil.
func (s *Switch) PortTo(peer NodeID) *Port {
	if i, ok := s.portIdx[peer]; ok {
		return s.ports[i]
	}
	return nil
}

// egress resolves the packet's output port index: the ECMP set when the
// destination has several equal-cost next hops, the static route
// otherwise. ECMP selection hashes (topology salt, switch id, flow id),
// so a flow's path is fixed for its lifetime.
//
//dtlint:hotpath
func (s *Switch) egress(pkt *Packet) (int, bool) {
	dst := int(pkt.Dst)
	if uint(dst) >= uint(len(s.routes)) {
		return 0, false
	}
	if dst < len(s.ecmp) {
		if set := s.ecmp[dst]; len(set) > 0 {
			h := ecmpHash(s.hashSalt, uint64(s.id), uint64(pkt.Flow))
			return int(set[h%uint64(len(set))]), true
		}
	}
	idx := s.routes[dst]
	return int(idx), idx >= 0
}

// ecmpHash mixes the topology salt, the switch identity, and the flow
// identity with a splitmix64-style finalizer. Including the switch id
// decorrelates consecutive hops (no path polarization: downstream
// switches do not all make the same choice), and the salt makes
// placement a function of the run seed.
//
//dtlint:hotpath
func ecmpHash(salt, swID, flow uint64) uint64 {
	z := salt ^ swID*0x9e3779b97f4a7c15 ^ flow*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// Receive implements Node: forward on the route — or the ECMP hash — for
// the packet's destination.
//
//dtlint:hotpath
func (s *Switch) Receive(pkt *Packet) {
	idx, ok := s.egress(pkt)
	if !ok {
		s.droppedNoRoute++
		s.net.FreePacket(pkt)
		return
	}
	s.ports[idx].Send(pkt)
}

// DroppedNoRoute reports packets discarded for lack of a route.
func (s *Switch) DroppedNoRoute() uint64 { return s.droppedNoRoute }

// Host is a leaf node with a single uplink and a set of transport
// endpoints keyed by flow.
type Host struct {
	id        NodeID
	name      string
	net       *Network
	uplink    *Port
	endpoints map[FlowID]Endpoint
	// droppedNoFlow counts packets for unknown flows.
	droppedNoFlow uint64
}

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Uplink returns the host's single outbound port. It is nil until the
// host is connected.
func (h *Host) Uplink() *Port { return h.uplink }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Engine returns the engine this host's endpoints schedule on.
func (h *Host) Engine() *sim.Engine { return h.net.engine }

// AllocPacket returns a zeroed packet from the network's free list.
//
//dtlint:hotpath
func (h *Host) AllocPacket() *Packet { return h.net.AllocPacket() }

// Register attaches a transport endpoint for a flow. Registering a second
// endpoint for the same flow panics: it is always a harness bug.
func (h *Host) Register(flow FlowID, ep Endpoint) {
	if _, dup := h.endpoints[flow]; dup {
		panic(fmt.Sprintf("netsim: duplicate endpoint for flow %d on %s", flow, h.name))
	}
	h.endpoints[flow] = ep
}

// Unregister detaches the endpoint for a flow.
func (h *Host) Unregister(flow FlowID) { delete(h.endpoints, flow) }

// Send stamps the packet's source and pushes it onto the uplink.
//
//dtlint:hotpath
func (h *Host) Send(pkt *Packet) {
	pkt.Src = h.id
	h.uplink.Send(pkt)
}

// Receive implements Node: deliver to the flow's endpoint. Delivery is
// a pooled packet's terminal point — the network recycles it when
// Deliver returns, so endpoints must copy out anything they keep.
//
//dtlint:hotpath
func (h *Host) Receive(pkt *Packet) {
	ep, ok := h.endpoints[pkt.Flow]
	if !ok {
		h.droppedNoFlow++
		h.net.FreePacket(pkt)
		return
	}
	ep.Deliver(pkt)
	h.net.FreePacket(pkt)
}

// DroppedNoFlow reports packets discarded for lack of an endpoint.
func (h *Host) DroppedNoFlow() uint64 { return h.droppedNoFlow }
