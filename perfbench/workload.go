package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"dtdctcp"
	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/fluid"
	"dtdctcp/internal/hybrid"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/topo"
	"dtdctcp/internal/workload"
)

// A benchWorkload is one named scenario. pass runs it once through the public
// facade; build constructs the same scenario from the public
// constructors the facade's runner uses and stops before its first
// event, which is what setup_s times and what the traced run executes
// again to read per-layer counters the facade does not report.
type benchWorkload struct {
	name string
	why  string
	pass func(seed int64, withMetrics bool) (*outcome, error)
	// reference runs the workload's more detailed model, when it has one
	// (hybrid's full-packet run); nil otherwise.
	reference func(seed int64) (*outcome, error)
	build     func(seed int64) (*scenario, error)
}

// outcome is what one facade call reports, reduced to what the benchmark
// checks and scores.
type outcome struct {
	digest string
	events uint64
	// snap is the pull-based metrics snapshot; nil unless requested.
	snap *metrics.Snapshot
	// rtos, fluidSteps, couplerTicks and completed are public result
	// counters; zero where the workload has no such layer.
	rtos, fluidSteps, couplerTicks, completed uint64
	// queueMean and fctMean (hybrid only) feed the accuracy metrics;
	// fgFCTs counts foreground transfers completed in the measured window.
	queueMean, fctMean float64
	fgFCTs             int
	// packets (dumbbell only) digests the packet-level counters a
	// replica without the facade's samplers must reproduce.
	packets string
	// problem is a failed output check, nil when the output is correct.
	problem error
}

// scenario is a replica of a workload built outside the facade.
type scenario struct {
	engine *sim.Engine
	net    *netsim.Network
	end    sim.Time
	// matches reports whether the replica, after running to end,
	// reproduced the facade's outcome.
	matches func(o *outcome) error
}

var workloads = []*benchWorkload{dumbbellWorkload, fabricWorkload, hybridWorkload}

func lookupWorkload(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// digester folds 64-bit words into one FNV-1a checksum.
type digester struct{ words []uint64 }

func (d *digester) add(v ...uint64) { d.words = append(d.words, v...) }
func (d *digester) addFloat(v ...float64) {
	for _, f := range v {
		d.add(math.Float64bits(f))
	}
}

func (d *digester) sum() string {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range d.words {
		for i := range buf {
			buf[i] = byte(w >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---- dumbbell --------------------------------------------------------

// dumbbellConfig is the paper's §VI-A scenario: 40 DT-DCTCP flows on one
// 10 Gbps bottleneck, 0.5 s simulated.
func dumbbellConfig(seed int64) dtdctcp.DumbbellConfig {
	return dtdctcp.DumbbellConfig{
		Protocol:         dtdctcp.DTDCTCP(30, 50, 1.0/16),
		Flows:            40,
		Rate:             10 * dtdctcp.Gbps,
		RTT:              100 * time.Microsecond,
		BufferPkts:       600,
		Warmup:           100 * time.Millisecond,
		Duration:         400 * time.Millisecond,
		QueueSampleEvery: 25 * time.Microsecond,
		AlphaSampleEvery: time.Millisecond,
		Seed:             seed,
	}
}

var dumbbellWorkload = &benchWorkload{
	name: "dumbbell",
	why:  "paper's 40-flow DT-DCTCP dumbbell: steady per-packet path (ACK clock, DT verdict, one hot port) on a shallow event heap",
	pass: func(seed int64, withMetrics bool) (*outcome, error) {
		cfg := dumbbellConfig(seed)
		cfg.Metrics = withMetrics
		res, err := dtdctcp.RunDumbbell(cfg)
		if err != nil {
			return nil, err
		}
		// DumbbellResult carries no digest, so fold every deterministic
		// field into one.
		var pk digester
		pk.add(res.Marks, res.Drops, res.Timeouts)
		for _, a := range res.PerFlowAcked {
			pk.add(uint64(a))
		}
		d := digester{words: append([]uint64(nil), pk.words...)}
		d.addFloat(res.QueueMeanPkts, res.QueueStdPkts, res.QueueMinPkts, res.QueueMaxPkts,
			res.AlphaMean, res.Utilization, res.Fairness)
		d.add(res.Events, res.QueueSeries.Hash64(), res.AlphaSeries.Hash64())
		o := &outcome{digest: d.sum(), packets: pk.sum(), events: res.Events, snap: res.Metrics, rtos: res.Timeouts}
		if res.Utilization <= 0 {
			o.problem = errors.New("dumbbell: bottleneck carried no traffic")
		}
		return o, nil
	},
	build: buildDumbbell,
}

// buildDumbbell mirrors core.RunDumbbell's serial path up to its first
// event. The facade's α samplers are left out: they read state and
// schedule their own ticks, so they change the event count but not the
// packets, which is what matches compares.
func buildDumbbell(seed int64) (*scenario, error) {
	cfg := dumbbellConfig(seed)
	engine := sim.NewEngine(seed)
	st, err := newStar(engine, cfg.Protocol, cfg.Flows, cfg.Rate, cfg.RTT, cfg.BufferPkts)
	if err != nil {
		return nil, err
	}
	pktSize := cfg.Protocol.PacketSize()
	bneck := st.Bottleneck
	rec := netsim.NewQueueRecorder(pktSize, sim.FromDuration(cfg.QueueSampleEvery))
	rec.WarmupUntil = sim.FromDuration(cfg.Warmup)
	bneck.SetMonitor(rec)
	flows := workload.StartLongLived(engine, workload.LongLivedConfig{
		Hosts:       st.Senders,
		Receiver:    st.Receiver,
		TCP:         cfg.Protocol.TCP,
		StartJitter: cfg.RTT,
	})
	end := sim.FromDuration(cfg.Warmup + cfg.Duration)
	return &scenario{
		engine: engine, net: st.Net, end: end,
		matches: func(o *outcome) error {
			var d digester
			ps := bneck.Stats()
			d.add(ps.Marked, ps.DroppedOverflow, flows.Timeouts())
			for _, s := range flows.Senders {
				d.add(uint64(s.Acked()))
			}
			if got := d.sum(); got != o.packets {
				return fmt.Errorf("dumbbell replica packets %s, facade %s", got, o.packets)
			}
			return nil
		},
	}, nil
}

// ---- fabric ----------------------------------------------------------

// The fabric workload is a scaled-down FABRIC_baseline point: DCTCP on a
// k=4 fat-tree carrying a 3,000-flow websearch trace.
const (
	fabricK     = 4
	fabricFlows = 3000
)

func fabricConfig(seed int64) (dtdctcp.FabricConfig, error) {
	cdf, err := dtdctcp.BuiltinFlowCDF(flowgen.WebSearchSmall)
	if err != nil {
		return dtdctcp.FabricConfig{}, err
	}
	return dtdctcp.FabricConfig{
		Protocol:   dtdctcp.DCTCP(20, 1.0/16),
		Topology:   "fattree",
		K:          fabricK,
		Rate:       dtdctcp.Gbps,
		HopDelay:   10 * time.Microsecond,
		BufferPkts: 100,
		CDF:        cdf,
		Load:       0.6,
		Flows:      fabricFlows,
		Drain:      2 * time.Second,
		Seed:       seed,
	}, nil
}

var fabricWorkload = &benchWorkload{
	name: "fabric",
	why:  "k=4 fat-tree websearch trace: deep event heap, switch egress/ECMP lookups, short slow-start flows, flowgen setup and per-flow memory",
	pass: func(seed int64, withMetrics bool) (*outcome, error) {
		cfg, err := fabricConfig(seed)
		if err != nil {
			return nil, err
		}
		cfg.Metrics = withMetrics
		res, err := dtdctcp.RunFabric(cfg)
		if err != nil {
			return nil, err
		}
		o := &outcome{digest: res.Digest, events: res.Events, snap: res.Metrics,
			rtos: res.Timeouts, completed: uint64(res.Completed)}
		if res.Completed != res.Flows {
			o.problem = fmt.Errorf("fabric: %d of %d flows completed", res.Completed, res.Flows)
		}
		return o, nil
	},
	build: buildFabric,
}

// fabricTopology mirrors core.RunFabric's serial path up to the
// workload: engine, network and fat-tree.
func fabricTopology(seed int64) (dtdctcp.FabricConfig, *sim.Engine, *topo.Fabric, error) {
	cfg, err := fabricConfig(seed)
	if err != nil {
		return cfg, nil, nil, err
	}
	engine := sim.NewEngine(seed)
	nw := netsim.NewNetwork(engine)
	link := topo.LinkSpec{Rate: cfg.Rate, Delay: cfg.HopDelay, BufferBytes: cfg.BufferPkts * cfg.Protocol.PacketSize()}
	fab, err := topo.FatTree(nw, cfg.K, topo.Config{HostLink: link, FabricLink: link, Policy: cfg.Protocol.NewPolicy})
	return cfg, engine, fab, err
}

func startFabricFlows(cfg dtdctcp.FabricConfig, fab *topo.Fabric) (*flowgen.Workload, error) {
	return flowgen.Start(fab.Hosts, flowgen.Config{
		CDF:         cfg.CDF,
		Load:        cfg.Load,
		CapacityBps: fab.BisectionBps(),
		Flows:       cfg.Flows,
		TCP:         cfg.Protocol.TCP,
	})
}

// buildFabric mirrors core.RunFabric's serial path up to its first event.
func buildFabric(seed int64) (*scenario, error) {
	cfg, engine, fab, err := fabricTopology(seed)
	if err != nil {
		return nil, err
	}
	w, err := startFabricFlows(cfg, fab)
	if err != nil {
		return nil, err
	}
	return &scenario{
		engine: engine, net: fab.Net, end: w.LastArrival().Add(cfg.Drain),
		matches: func(o *outcome) error {
			if got := fmt.Sprintf("%016x", w.Digest()); got != o.digest {
				return fmt.Errorf("fabric replica digest %s, facade %s", got, o.digest)
			}
			return nil
		},
	}, nil
}

// ---- hybrid ----------------------------------------------------------

// hybridConfig is fluid background plus packet foreground on one DCTCP
// bottleneck, 1 s simulated. 300 background flows keep the foreground
// completing transfers in both modes while the hybrid/packet
// disagreement stays visible; at 1000 the foreground completes nothing.
func hybridConfig(seed int64) dtdctcp.HybridConfig {
	p := dtdctcp.DCTCP(40, 1.0/16)
	p.TCP.RTOMin = 10 * time.Millisecond
	p.TCP.RTOInitial = 10 * time.Millisecond
	return dtdctcp.HybridConfig{
		Protocol:         p,
		BgFlows:          300,
		FgFlows:          4,
		FgBytes:          20_000,
		FgGap:            500 * time.Microsecond,
		Rate:             10 * dtdctcp.Gbps,
		RTT:              100 * time.Microsecond,
		BufferPkts:       600,
		Warmup:           15 * time.Millisecond,
		Duration:         time.Second,
		QueueSampleEvery: 20 * time.Microsecond,
		Seed:             seed,
	}
}

func hybridOutcome(res *dtdctcp.HybridResult) *outcome {
	o := &outcome{
		digest: res.Digest, events: res.Events, snap: res.Metrics, rtos: res.Timeouts,
		fluidSteps: uint64(res.FluidFinal.Step), couplerTicks: uint64(res.CouplerTicks),
		queueMean: res.QueueMeanPkts, fctMean: res.FgFCTMeanSec, fgFCTs: res.FgFCTCount,
	}
	if res.FgFCTCount < 1 {
		o.problem = fmt.Errorf("hybrid (%s mode): no foreground transfer completed in the measured window", res.Mode)
	}
	return o
}

var hybridWorkload = &benchWorkload{
	name: "hybrid",
	why:  "300 fluid background flows coupled to 4 packet foreground flows: fluid stepper and coupler dominate, the event heap barely works",
	pass: func(seed int64, withMetrics bool) (*outcome, error) {
		cfg := hybridConfig(seed)
		cfg.Metrics = withMetrics
		res, err := dtdctcp.RunHybrid(cfg)
		if err != nil {
			return nil, err
		}
		return hybridOutcome(res), nil
	},
	reference: func(seed int64) (*outcome, error) {
		cfg := hybridConfig(seed)
		cfg.FullPacket = true
		res, err := dtdctcp.RunHybrid(cfg)
		if err != nil {
			return nil, err
		}
		return hybridOutcome(res), nil
	},
	build: buildHybrid,
}

// buildHybrid mirrors core.RunHybrid's serial hybrid-mode path up to its
// first event.
func buildHybrid(seed int64) (*scenario, error) {
	cfg := hybridConfig(seed)
	engine := sim.NewEngine(seed)
	st, err := newStar(engine, cfg.Protocol, cfg.FgFlows, cfg.Rate, cfg.RTT, cfg.BufferPkts)
	if err != nil {
		return nil, err
	}
	pktSize := cfg.Protocol.PacketSize()
	bneck := st.Bottleneck
	rec := netsim.NewQueueRecorder(pktSize, sim.FromDuration(cfg.QueueSampleEvery))
	rec.WarmupUntil = sim.FromDuration(cfg.Warmup)
	bneck.SetMonitor(rec)
	horizon := cfg.Warmup + cfg.Duration
	coupler, err := hybrid.New(hybrid.Config{
		Fluid:   hybridFluidConfig(cfg),
		Port:    bneck,
		PktSize: pktSize,
		Horizon: horizon,
	})
	if err != nil {
		return nil, err
	}
	coupler.Start(engine)
	fg := workload.StartForeground(engine, workload.ForegroundConfig{
		Hosts:       st.Senders,
		Receiver:    st.Receiver,
		Bytes:       cfg.FgBytes,
		Gap:         cfg.FgGap,
		TCP:         cfg.Protocol.TCP,
		BaseFlow:    1,
		StartJitter: cfg.RTT,
		Horizon:     horizon,
		Warmup:      cfg.Warmup,
	})
	return &scenario{
		engine: engine, net: st.Net, end: sim.FromDuration(horizon),
		matches: func(o *outcome) error {
			got := [3]uint64{engine.Stats().Processed, uint64(coupler.Ticks()), uint64(len(fg.FCTs()))}
			want := [3]uint64{o.events, o.couplerTicks, uint64(o.fgFCTs)}
			if got != want {
				return fmt.Errorf("hybrid replica (events, ticks, fg FCTs) = %v, facade %v", got, want)
			}
			return nil
		},
	}, nil
}

// newStar wires the dumbbell the core runners build: senders and a
// receiver on one switch, access links at ten times the bottleneck rate,
// the RTT split over the four link traversals, and the protocol's queue
// law on the switch → receiver port.
func newStar(engine *sim.Engine, p dtdctcp.Protocol, senders int, rate netsim.Rate, rtt time.Duration, bufferPkts int) (*topo.Star, error) {
	pktSize := p.PacketSize()
	hop := rtt / 4
	return topo.NewStar(netsim.NewNetwork(engine), topo.StarConfig{
		Senders: senders,
		Access:  netsim.PortConfig{Rate: 10 * rate, Delay: hop, Buffer: 4096 * pktSize},
		Bottleneck: netsim.PortConfig{
			Rate:   rate,
			Delay:  hop,
			Buffer: bufferPkts * pktSize,
			Policy: p.NewPolicy(engine.Rand()),
		},
	})
}

// hybridFluidConfig maps the scenario onto the background fluid model
// the way core.HybridConfig does.
func hybridFluidConfig(cfg dtdctcp.HybridConfig) fluid.Config {
	return fluid.Config{
		N:           float64(cfg.BgFlows),
		C:           cfg.Rate.BytesPerSecond() / float64(cfg.Protocol.PacketSize()),
		D:           cfg.RTT.Seconds(),
		G:           cfg.Protocol.TCP.G,
		Law:         cfg.Protocol.MarkingLaw(),
		RTTRefQueue: float64(cfg.Protocol.K),
		BufferLimit: float64(cfg.BufferPkts),
	}
}
