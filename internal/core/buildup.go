package core

import (
	"errors"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/stats"
	"dtdctcp/internal/tcp"
	"dtdctcp/internal/workload"
)

// The "queue buildup" microbenchmark the paper inherits from the DCTCP
// evaluation: a few long-lived flows keep the bottleneck busy while a
// latency-sensitive client repeatedly fetches short transfers through
// the same queue. The short flows' completion time exposes the standing
// queue each protocol maintains. The parameters are the DCTCP paper's,
// scaled to this repository's 10 Gbps dumbbell.
const (
	// buildupLongFlows is the number of background bulk flows (the
	// DCTCP paper uses 2).
	buildupLongFlows = 2
	// buildupShortBytes is each short transfer's size (DCTCP paper:
	// 20 KB); buildupShortEvery is the idle gap between them.
	buildupShortBytes = 20 << 10
	buildupShortEvery = 500 * time.Microsecond
	// The dumbbell: rate, zero-queue RTT and bottleneck buffer.
	buildupRate       = 10 * netsim.Gbps
	buildupRTT        = 100 * time.Microsecond
	buildupBufferPkts = 600
	// buildupWarmup lets the background flows settle before the first
	// short transfer; buildupDuration is the measured run after it.
	buildupWarmup   = 20 * time.Millisecond
	buildupDuration = 60 * time.Millisecond
	buildupSeed     = 1
)

// BuildupResult summarizes the short flows' experience.
type BuildupResult struct {
	// Protocol echoes the configuration.
	Protocol string
	// ShortTransfers counts completed short flows.
	ShortTransfers int
	// MeanFCT, P95FCT, MaxFCT summarize short-flow completion times.
	MeanFCT, P95FCT, MaxFCT time.Duration
	// QueueMeanPkts is the bottleneck's time-weighted mean occupancy.
	QueueMeanPkts float64
	// BackgroundUtilization is the long flows' share of capacity.
	BackgroundUtilization float64
}

// RunBuildup executes the microbenchmark for protocol p.
func RunBuildup(p Protocol) (*BuildupResult, error) {
	engine := sim.NewEngine(buildupSeed)
	// Long-lived senders first, then the short-transfer client.
	st, err := newStar(engine, p, buildupLongFlows+1, buildupRate, buildupRTT, buildupBufferPkts)
	if err != nil {
		return nil, err
	}
	rcv, bneck := st.Receiver, st.Bottleneck
	longHosts, shortHost := st.Senders[:buildupLongFlows], st.Senders[buildupLongFlows]
	pktSize := p.PacketSize()
	rec := netsim.NewQueueRecorder(pktSize, 0)
	rec.WarmupUntil = sim.FromDuration(buildupWarmup)
	bneck.SetMonitor(rec)

	bg := workload.StartLongLived(engine, workload.LongLivedConfig{
		Hosts:       longHosts,
		Receiver:    rcv,
		TCP:         p.TCP,
		StartJitter: buildupRTT,
	})

	// Sequential short transfers on fresh connections, starting after
	// warmup.
	var fcts []float64
	const shortFlowBase = 1 << 20
	flowID := netsim.FlowID(shortFlowBase)
	var launch func()
	launch = func() {
		flow := flowID
		flowID++
		s := tcp.NewSender(shortHost, flow, rcv.ID(), buildupShortBytes, p.TCP)
		tcp.NewReceiver(rcv, flow, shortHost.ID(), p.TCP)
		started := engine.Now()
		s.OnComplete = func(done sim.Time) {
			fcts = append(fcts, (done - started).Duration().Seconds())
			shortHost.Unregister(flow)
			rcv.Unregister(flow)
			engine.After(buildupShortEvery, launch)
		}
		s.Start()
	}
	engine.Schedule(sim.FromDuration(buildupWarmup), launch)

	end := sim.FromDuration(buildupWarmup + buildupDuration)
	if err := engine.RunUntil(end); err != nil {
		return nil, err
	}
	rec.Finish(end)
	if len(fcts) == 0 {
		return nil, errors.New("core: no short transfer completed")
	}

	res := &BuildupResult{
		Protocol:       p.Name,
		ShortTransfers: len(fcts),
		MeanFCT:        secondsToDuration(stats.Mean(fcts)),
		P95FCT:         secondsToDuration(stats.Quantile(fcts, 0.95)),
		MaxFCT:         secondsToDuration(stats.Quantile(fcts, 1)),
		QueueMeanPkts:  rec.Mean(),
	}
	res.BackgroundUtilization = float64(bg.TotalAcked()) /
		(buildupRate.BytesPerSecond() * (buildupWarmup + buildupDuration).Seconds())
	return res, nil
}
