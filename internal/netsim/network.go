package netsim

import (
	"fmt"

	"dtdctcp/internal/sim"
)

// Network is a collection of nodes and directed links plus static routes.
// Build a topology with AddHost/AddSwitch/Connect, then call ComputeRoutes
// once before starting traffic.
type Network struct {
	engine   *sim.Engine
	nodes    []Node
	hosts    []*Host
	switches []*Switch
	// adjacency lists the neighbours of each node in attachment order,
	// mirrored by the switch port slices.
	adjacency map[NodeID][]NodeID
	// pool recycles packets across the whole topology; see AllocPacket.
	pool packetPool
}

// NewNetwork creates an empty topology bound to the engine.
func NewNetwork(engine *sim.Engine) *Network {
	return &Network{engine: engine, adjacency: make(map[NodeID][]NodeID)}
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.engine }

// AddHost creates a host node.
func (n *Network) AddHost(name string) *Host {
	h := &Host{
		id:        NodeID(len(n.nodes)),
		name:      name,
		net:       n,
		endpoints: make(map[FlowID]Endpoint),
	}
	n.nodes = append(n.nodes, h)
	n.hosts = append(n.hosts, h)
	return h
}

// AddSwitch creates a switch node.
func (n *Network) AddSwitch(name string) *Switch {
	s := &Switch{
		id:      NodeID(len(n.nodes)),
		name:    name,
		net:     n,
		portIdx: make(map[NodeID]int),
	}
	n.nodes = append(n.nodes, s)
	n.switches = append(n.switches, s)
	return s
}

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Hosts returns the hosts in creation order (shared slice; do not mutate).
func (n *Network) Hosts() []*Host { return n.hosts }

// Switches returns the switches in creation order (shared slice; do not
// mutate).
func (n *Network) Switches() []*Switch { return n.switches }

// Connect joins two nodes with a full-duplex link: ab configures the a→b
// direction (the port on a), ba the b→a direction. Hosts accept exactly
// one connection.
func (n *Network) Connect(a, b Node, ab, ba PortConfig) error {
	if _, err := n.attach(a, b, ab); err != nil {
		return err
	}
	if _, err := n.attach(b, a, ba); err != nil {
		return err
	}
	n.adjacency[a.ID()] = append(n.adjacency[a.ID()], b.ID())
	n.adjacency[b.ID()] = append(n.adjacency[b.ID()], a.ID())
	return nil
}

func (n *Network) attach(from, to Node, cfg PortConfig) (*Port, error) {
	port := newPort(n, cfg, to)
	switch node := from.(type) {
	case *Host:
		if node.uplink != nil {
			return nil, fmt.Errorf("netsim: host %s already connected", node.name)
		}
		node.uplink = port
	case *Switch:
		if _, dup := node.portIdx[to.ID()]; dup {
			return nil, fmt.Errorf("netsim: duplicate link %s → %s", node.name, to.Name())
		}
		node.portIdx[to.ID()] = len(node.ports)
		node.ports = append(node.ports, port)
	default:
		return nil, fmt.Errorf("netsim: unknown node type %T", from)
	}
	return port, nil
}

// ComputeRoutes fills every switch's routing table with shortest paths
// (hop count, BFS). It must be called after the topology is complete and
// before any traffic is sent. It also stamps every port with its stable
// domain index (see stampDomains).
func (n *Network) ComputeRoutes() error {
	n.stampDomains()
	for _, s := range n.switches {
		s.routes = n.emptyRoutes()
		for _, dst := range n.nodes {
			if dst.ID() == s.ID() {
				continue
			}
			next, ok := n.nextHop(s.ID(), dst.ID())
			if !ok {
				return fmt.Errorf("netsim: no path from %s to %s", s.Name(), dst.Name())
			}
			idx, ok := s.portIdx[next]
			if !ok {
				return fmt.Errorf("netsim: inconsistent adjacency at %s", s.Name())
			}
			s.routes[dst.ID()] = int32(idx)
		}
	}
	return nil
}

// emptyRoutes returns a routing table with one "no route" entry per node.
func (n *Network) emptyRoutes() []int32 {
	routes := make([]int32, len(n.nodes))
	for i := range routes {
		routes[i] = -1
	}
	return routes
}

// stampDomains writes a stable domain index onto every port: host
// uplinks in host creation order, then switch ports in switch ×
// attachment order. Ports ship deliveries under it, so the engine orders
// same-instant deliveries from different ports by this topology-derived
// index rather than by scheduling order.
func (n *Network) stampDomains() {
	d := 0
	for _, h := range n.hosts {
		if h.uplink != nil {
			h.uplink.srcKey = d
		}
		d++
	}
	for _, s := range n.switches {
		for _, p := range s.ports {
			p.srcKey = d
			d++
		}
	}
}

// ComputeRoutesECMP fills the routing tables like ComputeRoutes, but
// keeps every equal-cost shortest next hop instead of only the first: a
// destination with two or more tied first hops gets an ECMP set, and
// each switch resolves a packet's egress by hashing (salt, switch id,
// flow id) over it — see Switch.egress. The salt should come from the
// topology's seeded engine so placement is a pure function of the run
// seed; ECMP sets are ordered by port index, so the choice is
// reproducible. Like ComputeRoutes, it must be called after the topology
// is complete and before any traffic.
func (n *Network) ComputeRoutesECMP(salt uint64) error {
	n.stampDomains()
	// dist[x] = hops from node x to the current destination along paths
	// whose interior nodes are switches. Computed by BFS outward from the
	// destination over the (symmetric) adjacency; hosts other than the
	// destination take a distance but are never expanded, because they do
	// not forward.
	dist := make([]int, len(n.nodes))
	queue := make([]NodeID, 0, len(n.nodes))
	for _, s := range n.switches {
		s.hashSalt = salt
		s.routes = n.emptyRoutes()
		s.ecmp = nil
	}
	for _, dstNode := range n.nodes {
		dst := dstNode.ID()
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if cur != dst {
				if _, isHost := n.nodes[cur].(*Host); isHost {
					continue
				}
			}
			for _, nb := range n.adjacency[cur] {
				if dist[nb] < 0 {
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		for _, s := range n.switches {
			if s.id == dst {
				continue
			}
			if dist[s.id] < 0 {
				return fmt.Errorf("netsim: no path from %s to %s", s.Name(), dstNode.Name())
			}
			first := -1
			var set []int32
			for i, p := range s.ports {
				peer := p.peer.ID()
				if dist[peer] != dist[s.id]-1 {
					continue
				}
				if peer != dst {
					if _, isHost := n.nodes[peer].(*Host); isHost {
						continue // hosts do not forward
					}
				}
				if first < 0 {
					first = i
				}
				set = append(set, int32(i))
			}
			if first < 0 {
				return fmt.Errorf("netsim: inconsistent adjacency at %s", s.Name())
			}
			s.routes[dst] = int32(first)
			if len(set) > 1 {
				if s.ecmp == nil {
					s.ecmp = make([][]int32, len(n.nodes))
				}
				s.ecmp[dst] = set
			}
		}
	}
	return nil
}

// nextHop runs a BFS from src and returns the first hop on a shortest path
// to dst.
func (n *Network) nextHop(src, dst NodeID) (NodeID, bool) {
	type entry struct {
		node  NodeID
		first NodeID
	}
	visited := make(map[NodeID]bool, len(n.nodes))
	visited[src] = true
	queue := make([]entry, 0, len(n.nodes))
	for _, nb := range n.adjacency[src] {
		if nb == dst {
			return nb, true
		}
		visited[nb] = true
		queue = append(queue, entry{node: nb, first: nb})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Hosts do not forward; they can only terminate a path.
		if _, isHost := n.nodes[cur.node].(*Host); isHost {
			continue
		}
		for _, nb := range n.adjacency[cur.node] {
			if nb == dst {
				return cur.first, true
			}
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, entry{node: nb, first: cur.first})
			}
		}
	}
	return 0, false
}
