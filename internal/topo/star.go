package topo

import (
	"fmt"

	"dtdctcp/internal/netsim"
)

// StarConfig describes the classic n-senders-one-receiver star the
// workload tests share: senders and the receiver hang off one
// switch, with the switch → receiver port as the bottleneck.
type StarConfig struct {
	// Senders is the number of sender hosts.
	Senders int
	// Access configures every host ↔ switch direction except the
	// bottleneck (sender links both ways, and receiver → switch).
	Access netsim.PortConfig
	// Bottleneck configures the switch → receiver port, the one that
	// carries the queue law under test.
	Bottleneck netsim.PortConfig
}

// Star is a built star topology.
type Star struct {
	Net      *netsim.Network
	Switch   *netsim.Switch
	Receiver *netsim.Host
	Senders  []*netsim.Host
	// Bottleneck is the switch → receiver port.
	Bottleneck *netsim.Port
}

// NewStar wires the star onto an empty network and computes routes.
// Creation order (switch, receiver, then senders) fixes the port domain
// numbering that breaks same-instant delivery ties: receiver = domain 0,
// sender i = domain 1+i, then the switch ports in attachment order
// (receiver-facing first).
func NewStar(nw *netsim.Network, cfg StarConfig) (*Star, error) {
	if cfg.Senders < 1 {
		return nil, fmt.Errorf("topo: star needs at least one sender")
	}
	if err := emptyNetwork(nw); err != nil {
		return nil, err
	}
	st := &Star{Net: nw}
	st.Switch = nw.AddSwitch("sw")
	st.Receiver = nw.AddHost("rcv")
	if err := nw.Connect(st.Receiver, st.Switch, cfg.Access, cfg.Bottleneck); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Senders; i++ {
		h := nw.AddHost(fmt.Sprintf("w%d", i))
		st.Senders = append(st.Senders, h)
		if err := nw.Connect(h, st.Switch, cfg.Access, cfg.Access); err != nil {
			return nil, err
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		return nil, err
	}
	st.Bottleneck = st.Switch.PortTo(st.Receiver.ID())
	return st, nil
}
