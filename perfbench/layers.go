package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dtdctcp"
	"dtdctcp/internal/aqm"
	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/fluid"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
	"dtdctcp/internal/topo"
)

// Heap depths the layer drivers hold the event queue at: the pending
// high-water marks measured on the dumbbell (shallow) and fabric (deep)
// workloads.
const (
	shallowDepth = 274
	deepDepth    = 6028
)

// driverReps is how many times each layer driver repeats its fixed batch;
// the median batch is reported.
const driverReps = 5

// layerDriver times one public entry point of one layer.
type layerDriver struct {
	name string
	// run executes one batch and returns the host time spent in the
	// timed calls and the number of operations they performed.
	run func() (time.Duration, int, error)
}

var layerDrivers = []layerDriver{
	{"sim.schedule_run_ns.shallow", func() (time.Duration, int, error) { return scheduleRun(shallowDepth, 400_000) }},
	{"sim.schedule_run_ns.deep", func() (time.Duration, int, error) { return scheduleRun(deepDepth, 400_000) }},
	{"netsim.forward_ns", forward},
	{"netsim.route_ns", route},
	{"tcp.ack_ns", ackProcessing},
	{"aqm.verdict_ns.single", func() (time.Duration, int, error) {
		return verdicts(aqm.NewSingleThresholdPackets(20, 1500))
	}},
	{"aqm.verdict_ns.double", func() (time.Duration, int, error) {
		return verdicts(aqm.NewDoubleThresholdPackets(30, 50, 1500))
	}},
	{"fluid.step_ns", fluidSteps},
	{"flowgen.sample_ns", cdfSamples},
	{"metrics.observe_ns", histogramObserves},
}

// runLayerDrivers reports every driver's median ns per operation.
func runLayerDrivers() (map[string]float64, error) {
	out := make(map[string]float64, len(layerDrivers))
	for _, d := range layerDrivers {
		per := make([]float64, 0, driverReps)
		for i := 0; i < driverReps; i++ {
			elapsed, ops, err := d.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
			if ops <= 0 {
				return nil, fmt.Errorf("%s: no operations", d.name)
			}
			per = append(per, float64(elapsed.Nanoseconds())/float64(ops))
		}
		out[d.name] = median(per)
	}
	return out, nil
}

// scheduleRun keeps depth self-rescheduling event chains pending, so
// every executed event pops from and pushes into a heap of that depth,
// and runs until total events have executed.
func scheduleRun(depth, total int) (time.Duration, int, error) {
	e := sim.NewEngine(1)
	remaining := total
	for i := 0; i < depth; i++ {
		// Distinct periods interleave the chains, so pops and pushes
		// land all over the heap rather than at its ends.
		period := sim.Time(1000 + (i*7919)%4096)
		var fire func()
		fire = func() {
			remaining--
			if remaining > 0 {
				e.Schedule(e.Now()+period, fire)
			}
		}
		e.Schedule(period, fire)
	}
	start := time.Now()
	err := e.Run()
	return time.Since(start), int(e.Stats().Processed), err
}

// sink is a transport endpoint that counts and discards packets.
type sink struct{ n int }

func (s *sink) Deliver(*netsim.Packet) { s.n++ }

// pair wires two hosts through one switch on fast links with deep
// buffers; policy is the queue law of the port into dst.
func pair(e *sim.Engine, policy aqm.Policy) (src, dst *netsim.Host, err error) {
	link := netsim.PortConfig{Rate: 100 * netsim.Gbps, Delay: time.Microsecond, Buffer: 1 << 26}
	into := link
	into.Policy = policy
	st, err := topo.NewStar(netsim.NewNetwork(e), topo.StarConfig{Senders: 1, Access: link, Bottleneck: into})
	if err != nil {
		return nil, nil, err
	}
	return st.Senders[0], st.Receiver, nil
}

// forward sends full-size ECT packets host → switch → host through a
// DT-DCTCP port and reports host time per packet delivered.
func forward() (time.Duration, int, error) {
	e := sim.NewEngine(1)
	src, dst, err := pair(e, aqm.NewDoubleThresholdPackets(30, 50, 1500))
	if err != nil {
		return 0, 0, err
	}
	got := &sink{}
	dst.Register(1, got)
	const packets, batch = 200_000, 256
	start := time.Now()
	for i := 0; i < packets; i++ {
		pkt := src.AllocPacket()
		pkt.Flow, pkt.Dst, pkt.Size, pkt.ECT = 1, dst.ID(), 1500, true
		src.Send(pkt)
		if i%batch == batch-1 {
			if err := e.Run(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := e.Run(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	if got.n != packets {
		return 0, 0, fmt.Errorf("delivered %d of %d packets", got.n, packets)
	}
	return elapsed, got.n, nil
}

// route sends packets between pods of a k=4 fat-tree on 64 flows, so
// every packet crosses five switches (edge, aggregation, core,
// aggregation, edge) and ECMP spreads the flows; it reports host time
// per switch traversal.
func route() (time.Duration, int, error) {
	e := sim.NewEngine(1)
	nw := netsim.NewNetwork(e)
	link := topo.LinkSpec{Rate: 100 * netsim.Gbps, Delay: time.Microsecond, BufferBytes: 1 << 24}
	fab, err := topo.FatTree(nw, fabricK, topo.Config{HostLink: link, FabricLink: link})
	if err != nil {
		return 0, 0, err
	}
	hosts := fab.Hosts
	half := len(hosts) / 2 // hosts are numbered pod by pod
	const flows = 64
	sinks := make([]*sink, flows)
	srcs := make([]*netsim.Host, flows)
	dsts := make([]netsim.NodeID, flows)
	for f := range sinks {
		src, dst := hosts[f%len(hosts)], hosts[(f+half)%len(hosts)]
		sinks[f] = &sink{}
		dst.Register(netsim.FlowID(f+1), sinks[f])
		srcs[f], dsts[f] = src, dst.ID()
	}
	const packets, batch, switchHops = 100_000, 256, 5
	start := time.Now()
	for i := 0; i < packets; i++ {
		f := i % flows
		pkt := srcs[f].AllocPacket()
		pkt.Flow, pkt.Dst, pkt.Size = netsim.FlowID(f+1), dsts[f], 1500
		srcs[f].Send(pkt)
		if i%batch == batch-1 {
			if err := e.Run(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := e.Run(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	delivered := 0
	for _, s := range sinks {
		delivered += s.n
	}
	if delivered != packets {
		return 0, 0, fmt.Errorf("delivered %d of %d packets", delivered, packets)
	}
	var crossed uint64
	for _, p := range fab.CorePorts() {
		crossed += p.Stats().Dequeued
	}
	if crossed != packets {
		return 0, 0, fmt.Errorf("%d of %d packets crossed the core", crossed, packets)
	}
	return elapsed, packets * switchHops, nil
}

// ackProcessing feeds a DCTCP sender one cumulative ACK per segment (every
// eighth carrying ECN-echo) through Sender.Deliver and reports host time
// per ACK. Each ACK also makes the sender transmit, so the time includes
// congestion-window updates and segment sends; draining those segments
// through the network between batches is not timed.
func ackProcessing() (time.Duration, int, error) {
	e := sim.NewEngine(1)
	src, dst, err := pair(e, nil)
	if err != nil {
		return 0, 0, err
	}
	tcpCfg := dtdctcp.DCTCP(40, 1.0/16).TCP
	tcpCfg.RTOMin = time.Hour // no retransmission timer fires mid-measurement
	tcpCfg.RTOInitial = time.Hour
	s := tcp.NewSender(src, 1, dst.ID(), 0, tcpCfg)
	s.Start()
	ack := &netsim.Packet{Flow: 1, Src: dst.ID(), Dst: src.ID(), IsAck: true, DelayedCount: 1, Size: 64}
	const acks, batch = 200_000, 256
	var elapsed time.Duration
	for i := 0; i < acks; i += batch {
		start := time.Now()
		for j := i; j < i+batch && j < acks; j++ {
			ack.Ack = int64(j+1) * int64(tcpCfg.MSS)
			ack.ECE = j%8 == 0
			ack.EchoSentAt = 0
			if now := e.Now(); now > sim.Time(100*time.Microsecond) {
				ack.EchoSentAt = now - sim.Time(100*time.Microsecond)
			}
			s.Deliver(ack)
		}
		elapsed += time.Since(start)
		if err := e.RunFor(10 * time.Microsecond); err != nil {
			return 0, 0, err
		}
	}
	if got := s.Acked(); got != int64(acks)*int64(tcpCfg.MSS) {
		return 0, 0, fmt.Errorf("sender acknowledged %d bytes, want %d", got, int64(acks)*int64(tcpCfg.MSS))
	}
	return elapsed, acks, nil
}

// verdicts drives a queue law through a triangle occupancy trajectory
// (0 → 600 packets → 0, one arrival and one departure per step) and
// reports host time per arrival/departure pair.
func verdicts(p aqm.Policy) (time.Duration, int, error) {
	const steps, peak, pkt = 2_000_000, 600, 1500
	marks := 0
	start := time.Now()
	for i := 0; i < steps; i++ {
		q := i % (2 * peak)
		if q > peak {
			q = 2*peak - q
		}
		now := sim.Time(i)
		if p.OnArrival(now, q*pkt, pkt) == aqm.AcceptMark {
			marks++
		}
		p.OnDeparture(now, q*pkt)
	}
	elapsed := time.Since(start)
	if marks == 0 {
		return 0, 0, fmt.Errorf("%s never marked", p.Name())
	}
	return elapsed, steps, nil
}

// fluidSteps advances the hybrid workload's background fluid model at the
// coupler's default step (R₀/64) and reports host time per RK4 step.
func fluidSteps() (time.Duration, int, error) {
	cfg := hybridFluidConfig(hybridConfig(1))
	cfg.Step = cfg.R0() / 64
	s, err := fluid.NewStepper(cfg)
	if err != nil {
		return 0, 0, err
	}
	const steps = 200_000
	start := time.Now()
	for i := 0; i < steps; i++ {
		s.Step()
	}
	elapsed := time.Since(start)
	if st := s.State(); st.Step != steps || st.W <= 0 {
		return 0, 0, fmt.Errorf("stepper state %+v after %d steps", st, steps)
	}
	return elapsed, steps, nil
}

// cdfSamples draws flow sizes from the fabric workload's CDF.
func cdfSamples() (time.Duration, int, error) {
	cdf, err := flowgen.BuiltinCDF(flowgen.WebSearchSmall)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(1))
	const samples = 1_000_000
	var total int64
	start := time.Now()
	for i := 0; i < samples; i++ {
		total += cdf.Sample(rng)
	}
	elapsed := time.Since(start)
	if mean := float64(total) / samples; mean < cdf.Mean()/2 || mean > cdf.Mean()*2 {
		return 0, 0, fmt.Errorf("sample mean %.0f, CDF mean %.0f", mean, cdf.Mean())
	}
	return elapsed, samples, nil
}

// histogramObserves records a triangle queue trajectory into a 64-bucket
// histogram, the shape the fabric's queue-depth monitors use.
func histogramObserves() (time.Duration, int, error) {
	h := metrics.NewHistogram(metrics.LinearBounds(10, 10, 64))
	const observations = 2_000_000
	start := time.Now()
	for i := 0; i < observations; i++ {
		h.Observe(float64(i % 700))
	}
	elapsed := time.Since(start)
	if h.Count() != observations {
		return 0, 0, fmt.Errorf("histogram counted %d of %d", h.Count(), observations)
	}
	return elapsed, observations, nil
}

// flowgenBytesPerFlow is the heap flowgen.Start allocates per flow when
// it wires the fabric workload's trace.
func flowgenBytesPerFlow(seed int64) (float64, error) {
	cfg, _, fab, err := fabricTopology(seed)
	if err != nil {
		return 0, err
	}
	before := heapAllocBytes()
	if _, err := startFabricFlows(cfg, fab); err != nil {
		return 0, err
	}
	return float64(heapAllocBytes()-before) / float64(cfg.Flows), nil
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
