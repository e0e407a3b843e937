// Package topo builds datacenter fabrics on top of netsim: k-ary
// fat-trees and leaf-spine Clos networks with deterministic ECMP
// routing, plus the star of the dumbbell-shaped scenarios. Builders wire
// an existing (empty) Network so the caller controls the engine.
//
// Path choice in the multi-path fabrics is ECMP by flow hash
// (netsim.ComputeRoutesECMP): the hash salt is drawn once from the
// network engine's seeded source, so placement is a pure function of
// the run seed and reproducible across repeat runs.
package topo

import (
	"fmt"
	"math/rand"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/netsim"
)

// LinkSpec describes one class of full-duplex link.
type LinkSpec struct {
	// Rate is the link speed of each direction.
	Rate netsim.Rate
	// Delay is the one-way propagation delay; it must be positive.
	Delay time.Duration
	// BufferBytes is the egress queue capacity of each direction.
	BufferBytes int
}

func (l LinkSpec) validate(name string) error {
	switch {
	case l.Rate <= 0:
		return fmt.Errorf("topo: %s rate must be positive", name)
	case l.Delay <= 0:
		return fmt.Errorf("topo: %s delay must be positive", name)
	case l.BufferBytes <= 0:
		return fmt.Errorf("topo: %s buffer must be positive", name)
	default:
		return nil
	}
}

// Config parameterizes a fabric build.
type Config struct {
	// HostLink is the host ↔ edge-tier link class.
	HostLink LinkSpec
	// FabricLink is the switch ↔ switch link class.
	FabricLink LinkSpec
	// Policy returns a fresh queue law for one switch egress port (every
	// switch port gets its own instance; host uplinks stay DropTail).
	// nil means DropTail everywhere. Randomized laws receive the given
	// seeded source.
	Policy func(rng *rand.Rand) aqm.Policy
	// Salt, when non-nil, fixes the ECMP hash salt instead of drawing it
	// from the network engine's RNG. Tests use it to compare placements.
	Salt *uint64
}

func (c Config) validate() error {
	if err := c.HostLink.validate("host link"); err != nil {
		return err
	}
	return c.FabricLink.validate("fabric link")
}

// hostUp is the host → switch port: hosts pace themselves, so the
// uplink keeps DropTail.
func (c Config) hostUp() netsim.PortConfig {
	return netsim.PortConfig{Rate: c.HostLink.Rate, Delay: c.HostLink.Delay, Buffer: c.HostLink.BufferBytes}
}

// hostDown is the switch → host port, carrying the fabric's queue law —
// in a leaf or edge switch this egress queue is the incast bottleneck.
func (c Config) hostDown(rng *rand.Rand) netsim.PortConfig {
	pc := c.hostUp()
	if c.Policy != nil {
		pc.Policy = c.Policy(rng)
	}
	return pc
}

// fabric is a switch → switch port.
func (c Config) fabric(rng *rand.Rand) netsim.PortConfig {
	pc := netsim.PortConfig{Rate: c.FabricLink.Rate, Delay: c.FabricLink.Delay, Buffer: c.FabricLink.BufferBytes}
	if c.Policy != nil {
		pc.Policy = c.Policy(rng)
	}
	return pc
}

// Fabric is a built multi-tier topology.
type Fabric struct {
	// Net is the wired network; routes are already computed.
	Net *netsim.Network
	// Kind names the builder: "fattree" or "leafspine".
	Kind string
	// Hosts lists every host in creation order (pod-major for the
	// fat-tree, leaf-major for leaf-spine).
	Hosts []*netsim.Host
	// Edge, Agg, Core are the switch tiers. Leaf-spine fabrics have no
	// Agg tier: leaves are Edge, spines are Core.
	Edge, Agg, Core []*netsim.Switch
	// Salt is the ECMP hash salt the routes were computed with.
	Salt uint64

	cfg Config
}

// CorePorts returns every port of the core tier (spine ports in a
// leaf-spine), the natural place to observe inter-pod queueing.
func (f *Fabric) CorePorts() []*netsim.Port {
	return tierPorts(f.Core)
}

// AggPorts returns every port of the aggregation tier; in a leaf-spine
// fabric, which has no aggregation switches, it returns the leaf → spine
// uplink ports instead (the matching oversubscription point).
func (f *Fabric) AggPorts() []*netsim.Port {
	if len(f.Agg) > 0 {
		return tierPorts(f.Agg)
	}
	var ports []*netsim.Port
	for _, leaf := range f.Edge {
		for _, spine := range f.Core {
			if p := leaf.PortTo(spine.ID()); p != nil {
				ports = append(ports, p)
			}
		}
	}
	return ports
}

func tierPorts(tier []*netsim.Switch) []*netsim.Port {
	var ports []*netsim.Port
	for _, s := range tier {
		for i := 0; i < s.Ports(); i++ {
			ports = append(ports, s.Port(i))
		}
	}
	return ports
}

// HostBps returns the aggregate host NIC capacity in bytes per second.
func (f *Fabric) HostBps() float64 {
	return float64(len(f.Hosts)) * f.cfg.HostLink.Rate.BytesPerSecond()
}

// BisectionBps returns the fabric's bisection bandwidth in bytes per
// second: half of the smaller of the aggregate host capacity and the
// aggregate core-tier link capacity. For a non-oversubscribed k-ary
// fat-tree the two are equal and the bisection is half the total host
// bandwidth; for an oversubscribed leaf-spine the core tier is the
// limit. Workload generators target offered load as a fraction of this.
func (f *Fabric) BisectionBps() float64 {
	var coreBps float64
	for _, p := range f.CorePorts() {
		coreBps += p.Rate().BytesPerSecond()
	}
	host := f.HostBps()
	if coreBps < host {
		return coreBps / 2
	}
	return host / 2
}

// routes draws the ECMP salt (from cfg.Salt or the engine's seeded
// source) and computes the fabric's routes with it.
func (f *Fabric) routes() error {
	if f.cfg.Salt != nil {
		f.Salt = *f.cfg.Salt
	} else {
		f.Salt = f.Net.Engine().Rand().Uint64()
	}
	return f.Net.ComputeRoutesECMP(f.Salt)
}

func emptyNetwork(nw *netsim.Network) error {
	if len(nw.Hosts()) != 0 || len(nw.Switches()) != 0 {
		return fmt.Errorf("topo: builders require an empty network (domain numbering is creation-order)")
	}
	return nil
}
