package workload

import (
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
)

// ForegroundConfig parameterizes the hybrid co-simulation's foreground
// traffic: each host runs one persistent connection to the receiver and
// repeatedly transfers Bytes, pausing Gap between a transfer's last
// acknowledgement and the next transfer's start. Per-transfer completion
// times are recorded — the foreground FCTs the hybrid conformance grid
// compares against a fully packet-level run.
type ForegroundConfig struct {
	// Hosts are the foreground senders, one flow each.
	Hosts []*netsim.Host
	// Receiver absorbs every transfer.
	Receiver *netsim.Host
	// Bytes is the size of each transfer.
	Bytes int64
	// Gap is think time between a completion and the next transfer.
	Gap time.Duration
	// TCP configures all senders.
	TCP tcp.Config
	// BaseFlow is the first flow ID; one ID per host.
	BaseFlow netsim.FlowID
	// StartJitter staggers first transfers uniformly over the interval,
	// drawn from the construction engine's seeded stream.
	StartJitter time.Duration
	// Horizon stops the workload: no transfer starts at or after it.
	Horizon time.Duration
	// Warmup excludes early transfers: only completions of transfers
	// started at or after it are recorded.
	Warmup time.Duration
}

// Foreground runs repeated fixed-size transfers and records their FCTs.
type Foreground struct {
	flows []*fgFlow
}

type fgFlow struct {
	eng     *sim.Engine
	s       *tcp.Sender
	bytes   int64
	gap     time.Duration
	horizon sim.Time
	warmup  sim.Time

	started   sim.Time
	transfers int
	fcts      []float64
	nextFn    func()
}

// StartForeground creates the flows and schedules their first transfers.
// Start jitter is drawn from engine's seeded source.
func StartForeground(engine *sim.Engine, cfg ForegroundConfig) *Foreground {
	w := &Foreground{}
	for i, h := range cfg.Hosts {
		flow := cfg.BaseFlow + netsim.FlowID(i)
		s := tcp.NewSender(h, flow, cfg.Receiver.ID(), cfg.Bytes, cfg.TCP)
		tcp.NewReceiver(cfg.Receiver, flow, h.ID(), cfg.TCP)
		f := &fgFlow{
			eng:     h.Engine(),
			s:       s,
			bytes:   cfg.Bytes,
			gap:     cfg.Gap,
			horizon: sim.FromDuration(cfg.Horizon),
			warmup:  sim.FromDuration(cfg.Warmup),
		}
		f.nextFn = f.next
		s.OnComplete = f.complete
		start := engine.Now()
		if cfg.StartJitter > 0 {
			start = start.Add(time.Duration(engine.Rand().Int63n(int64(cfg.StartJitter))))
		}
		f.started = start
		s.StartAt(start)
		w.flows = append(w.flows, f)
	}
	return w
}

// complete runs at each transfer completion.
func (f *fgFlow) complete(now sim.Time) {
	f.transfers++
	if f.started >= f.warmup {
		f.fcts = append(f.fcts, (now - f.started).Seconds())
	}
	if next := now.Add(f.gap); next < f.horizon {
		f.eng.Schedule(next, f.nextFn)
	}
}

// next starts the flow's next transfer.
func (f *fgFlow) next() {
	f.started = f.eng.Now()
	f.s.Extend(f.bytes)
}

// FCTs returns every recorded completion time in seconds, concatenated
// in flow order — a deterministic sequence.
func (w *Foreground) FCTs() []float64 {
	var out []float64
	for _, f := range w.flows {
		out = append(out, f.fcts...)
	}
	return out
}

// Transfers counts completed transfers across all flows, warmup included.
func (w *Foreground) Transfers() int {
	total := 0
	for _, f := range w.flows {
		total += f.transfers
	}
	return total
}

// Timeouts sums RTO firings across flows.
func (w *Foreground) Timeouts() uint64 {
	var total uint64
	for _, f := range w.flows {
		total += f.s.Stats().Timeouts
	}
	return total
}
