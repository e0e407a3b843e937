package workload

import (
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
)

// QueryConfig parameterizes a repeated partition/aggregate query: every
// round, all workers simultaneously send BytesPerWorker to the aggregator;
// the round completes when the last byte is acknowledged. Each worker
// keeps one connection across rounds, the standard incast benchmark
// setup: after the first round, responses resume with the congestion
// state the previous round left behind.
//
// With BytesPerWorker fixed (64 KB) this is the paper's Incast experiment
// (Fig. 14); with BytesPerWorker = TotalBytes/n it is the completion-time
// experiment (Fig. 15).
type QueryConfig struct {
	// Workers are the responding hosts.
	Workers []*netsim.Host
	// Aggregator is the querying host that receives every response.
	Aggregator *netsim.Host
	// BytesPerWorker is each worker's response size.
	BytesPerWorker int64
	// Rounds is the number of repetitions.
	Rounds int
	// Gap is idle time between a round's completion and the next
	// round's start, modelling the aggregator's think time.
	Gap time.Duration
	// TCP configures all worker senders.
	TCP tcp.Config
	// Deadline, when positive, gives every response a completion
	// deadline of round-start + Deadline; D2TCP senders use it to
	// modulate their backoff, and the runner counts misses for every
	// variant.
	Deadline time.Duration
	// StartJitter staggers each worker's response uniformly over the
	// interval, modelling request fan-out serialization and host
	// scheduling noise. Zero starts all workers at the same instant.
	StartJitter time.Duration
}

// QueryRound records one completed round.
type QueryRound struct {
	// Start and End bound the round.
	Start, End sim.Time
	// Timeouts counts RTO firings during the round, the paper's
	// explanation for throughput collapse.
	Timeouts uint64
	// Retransmissions counts retransmitted segments during the round.
	Retransmissions uint64
	// MissedDeadlines counts workers that finished after the round's
	// deadline (always 0 when no deadline is configured).
	MissedDeadlines int
}

// Completion returns the round's query completion time.
func (r QueryRound) Completion() time.Duration { return (r.End - r.Start).Duration() }

// QueryRunner executes a QueryConfig round by round.
type QueryRunner struct {
	engine *sim.Engine
	cfg    QueryConfig

	rounds    []QueryRound
	round     int
	remaining int
	started   sim.Time
	senders   []*tcp.Sender
	// Baselines for per-round deltas on the persistent connections.
	baseTimeouts, baseRetx uint64
	done                   bool
}

// StartQueries begins the first round at the current instant.
func StartQueries(engine *sim.Engine, cfg QueryConfig) *QueryRunner {
	q := &QueryRunner{engine: engine, cfg: cfg}
	if cfg.Rounds > 0 && len(cfg.Workers) > 0 {
		q.startRound()
	} else {
		q.done = true
	}
	return q
}

// Done reports whether every round has completed.
func (q *QueryRunner) Done() bool { return q.done }

// Rounds returns the completed rounds (shared slice; do not mutate).
func (q *QueryRunner) Rounds() []QueryRound { return q.rounds }

// CompletionTimes lists each round's query completion time in seconds.
func (q *QueryRunner) CompletionTimes() []float64 {
	out := make([]float64, len(q.rounds))
	for i, r := range q.rounds {
		out[i] = r.Completion().Seconds()
	}
	return out
}

// GoodputsBps lists each round's application goodput in bits/second:
// total response bytes divided by the query completion time.
func (q *QueryRunner) GoodputsBps() []float64 {
	out := make([]float64, len(q.rounds))
	total := float64(q.cfg.BytesPerWorker) * float64(len(q.cfg.Workers)) * 8
	for i, r := range q.rounds {
		out[i] = total / r.Completion().Seconds()
	}
	return out
}

// TotalMissedDeadlines sums deadline misses over all rounds.
func (q *QueryRunner) TotalMissedDeadlines() int {
	total := 0
	for _, r := range q.rounds {
		total += r.MissedDeadlines
	}
	return total
}

// TotalTimeouts sums timeouts over all rounds.
func (q *QueryRunner) TotalTimeouts() uint64 {
	var total uint64
	for _, r := range q.rounds {
		total += r.Timeouts
	}
	return total
}

func (q *QueryRunner) startRound() {
	q.started = q.engine.Now()
	q.remaining = len(q.cfg.Workers)
	deadline := sim.TimeNever
	if q.cfg.Deadline > 0 {
		deadline = q.started.Add(q.cfg.Deadline)
	}
	if q.round > 0 {
		for _, s := range q.senders {
			s := s
			if q.cfg.Deadline > 0 {
				s.Deadline = deadline
			}
			q.kickoff(func() { s.Extend(q.cfg.BytesPerWorker) })
		}
		return
	}
	for i, worker := range q.cfg.Workers {
		flow := netsim.FlowID(i) // worker i keeps flow i for every round
		s := tcp.NewSender(worker, flow, q.cfg.Aggregator.ID(), q.cfg.BytesPerWorker, plusPacingSeed(q.engine, q.cfg.TCP))
		tcp.NewReceiver(q.cfg.Aggregator, flow, worker.ID(), q.cfg.TCP)
		if q.cfg.Deadline > 0 {
			s.Deadline = deadline
		}
		s.OnComplete = func(sim.Time) { q.workerDone() }
		q.senders = append(q.senders, s)
		q.kickoff(s.Start)
	}
}

// kickoff runs fn now or after the configured jitter.
func (q *QueryRunner) kickoff(fn func()) {
	if q.cfg.StartJitter > 0 {
		jitter := time.Duration(q.engine.Rand().Int63n(int64(q.cfg.StartJitter)))
		q.engine.After(jitter, fn)
		return
	}
	fn()
}

func (q *QueryRunner) workerDone() {
	q.remaining--
	if q.remaining > 0 {
		return
	}
	round := QueryRound{Start: q.started, End: q.engine.Now()}
	var timeouts, retx uint64
	deadline := q.started.Add(q.cfg.Deadline)
	for _, s := range q.senders {
		st := s.Stats()
		timeouts += st.Timeouts
		retx += st.Retransmissions
		if q.cfg.Deadline > 0 && s.CompletionTime() > deadline {
			round.MissedDeadlines++
		}
	}
	round.Timeouts = timeouts - q.baseTimeouts
	round.Retransmissions = retx - q.baseRetx
	q.baseTimeouts, q.baseRetx = timeouts, retx
	q.rounds = append(q.rounds, round)

	q.round++
	if q.round >= q.cfg.Rounds {
		// The connections outlive every round but the last.
		for i, s := range q.senders {
			q.cfg.Workers[i].Unregister(s.Flow())
			q.cfg.Aggregator.Unregister(s.Flow())
		}
		q.done = true
		return
	}
	if q.cfg.Gap > 0 {
		q.engine.After(q.cfg.Gap, q.startRound)
	} else {
		q.startRound()
	}
}
