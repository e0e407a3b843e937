package flowgen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
)

// Matrix selects how flow endpoints are drawn.
type Matrix int

const (
	// Random draws an independent source and destination per flow.
	Random Matrix = iota
	// Permutation fixes one derangement of the hosts at setup; every
	// flow goes from a random host to its image, so each host receives
	// from exactly one peer.
	Permutation
	// Incast directs every flow at one aggregator host drawn at setup,
	// from a random other host.
	Incast
)

// ParseMatrix maps the CLI names onto Matrix values.
func ParseMatrix(s string) (Matrix, error) {
	switch s {
	case "random":
		return Random, nil
	case "permutation":
		return Permutation, nil
	case "incast":
		return Incast, nil
	}
	return 0, fmt.Errorf("flowgen: unknown traffic matrix %q (random, permutation, incast)", s)
}

func (m Matrix) String() string {
	switch m {
	case Random:
		return "random"
	case Permutation:
		return "permutation"
	case Incast:
		return "incast"
	}
	return fmt.Sprintf("Matrix(%d)", int(m))
}

// Config parameterizes one trace-driven workload.
type Config struct {
	// CDF is the flow-size distribution.
	CDF *CDF
	// Load is the offered load as a fraction of CapacityBps; the Poisson
	// arrival rate is Load·CapacityBps/CDF.Mean() flows per second.
	Load float64
	// CapacityBps is the capacity the load targets in bytes per second —
	// conventionally the fabric's bisection bandwidth.
	CapacityBps float64
	// Flows is the trace length.
	Flows int
	// Matrix is the endpoint pattern (default Random).
	Matrix Matrix
	// TCP configures every connection; each flow opens a fresh
	// connection in slow start (the fresh-connection churn path — no
	// congestion state survives between flows).
	TCP tcp.Config
	// BaseFlow is the first flow ID; the workload consumes Flows
	// consecutive IDs. Zero means 1.
	BaseFlow netsim.FlowID
	// StartAfter delays the first arrival, leaving room for the run's
	// warm-up instrumentation.
	StartAfter time.Duration
}

// Flow is one trace entry with its measured outcome.
type Flow struct {
	// Src and Dst index the workload's host slice.
	Src, Dst int
	// Size is the transfer size in bytes.
	Size int64
	// Arrival is the flow's open-loop start instant.
	Arrival sim.Time
	// fct is the completion instant; done guards it. Written by the
	// sender's OnComplete.
	fct  sim.Time
	done bool
}

// FCT returns the flow completion time and whether the flow finished.
func (f *Flow) FCT() (time.Duration, bool) { return (f.fct - f.Arrival).Duration(), f.done }

// Workload is a started trace: every connection is constructed and
// scheduled; run the engine to execute it.
type Workload struct {
	// Flows is the generated trace in arrival order.
	Flows []Flow

	hosts   []*netsim.Host
	cfg     Config
	senders []*tcp.Sender
}

// Start generates the trace and wires it onto hosts. All randomness —
// sizes, interarrivals, endpoint choices — is drawn here, from the
// network construction engine's seeded source, so the trace is a pure
// function of the run seed. Endpoint construction and StartAt
// scheduling also happen here, at setup time.
//
// Each flow is a fresh connection: a new sender/receiver pair in slow
// start. On completion the sender unregisters its host-side endpoint —
// host tables shrink as the trace drains — and the
// receiver side is detached by Cleanup after the run.
func Start(hosts []*netsim.Host, cfg Config) (*Workload, error) {
	n := len(hosts)
	switch {
	case n < 2:
		return nil, fmt.Errorf("flowgen: need at least 2 hosts, got %d", n)
	case cfg.CDF == nil:
		return nil, fmt.Errorf("flowgen: no CDF")
	case cfg.Flows < 1:
		return nil, fmt.Errorf("flowgen: need at least 1 flow")
	case cfg.Load <= 0:
		return nil, fmt.Errorf("flowgen: load must be positive")
	case cfg.CapacityBps <= 0:
		return nil, fmt.Errorf("flowgen: capacity must be positive")
	}
	if cfg.BaseFlow == 0 {
		cfg.BaseFlow = 1
	}
	w := &Workload{hosts: hosts, cfg: cfg}
	rng := hosts[0].Network().Engine().Rand()

	// Endpoint pattern state drawn before the per-flow stream.
	var perm []int
	aggregator := 0
	switch cfg.Matrix {
	case Permutation:
		perm = derangement(rng, n)
	case Incast:
		aggregator = rng.Intn(n)
	}

	// flows/sec such that mean_size · rate = Load · CapacityBps.
	lambda := cfg.Load * cfg.CapacityBps / cfg.CDF.Mean()
	at := sim.TimeZero.Add(cfg.StartAfter)
	w.Flows = make([]Flow, cfg.Flows)
	for i := range w.Flows {
		at = at.Add(time.Duration(rng.ExpFloat64() / lambda * 1e9))
		f := &w.Flows[i]
		f.Arrival = at
		f.Size = cfg.CDF.Sample(rng)
		switch cfg.Matrix {
		case Permutation:
			f.Src = rng.Intn(n)
			f.Dst = perm[f.Src]
		case Incast:
			f.Dst = aggregator
			f.Src = otherThan(rng, n, aggregator)
		default:
			f.Src = rng.Intn(n)
			f.Dst = otherThan(rng, n, f.Src)
		}
	}

	w.senders = make([]*tcp.Sender, cfg.Flows)
	for i := range w.Flows {
		f := &w.Flows[i]
		id := cfg.BaseFlow + netsim.FlowID(i)
		src, dst := hosts[f.Src], hosts[f.Dst]
		s := tcp.NewSender(src, id, dst.ID(), f.Size, cfg.TCP)
		tcp.NewReceiver(dst, id, src.ID(), cfg.TCP)
		s.OnComplete = func(now sim.Time) {
			f.fct = now
			f.done = true
			src.Unregister(id)
		}
		s.StartAt(f.Arrival)
		w.senders[i] = s
	}
	return w, nil
}

// derangement returns a uniform-ish permutation of [0, n) with no fixed
// points: a Fisher–Yates draw repaired by swapping any fixed point with
// its neighbor.
func derangement(rng *rand.Rand, n int) []int {
	p := rng.Perm(n)
	for i := range p {
		if p[i] == i {
			j := (i + 1) % n
			p[i], p[j] = p[j], p[i]
		}
	}
	return p
}

// otherThan draws uniformly from [0, n) excluding skip.
func otherThan(rng *rand.Rand, n, skip int) int {
	v := rng.Intn(n - 1)
	if v >= skip {
		v++
	}
	return v
}

// Completed counts finished flows.
func (w *Workload) Completed() int {
	done := 0
	for i := range w.Flows {
		if w.Flows[i].done {
			done++
		}
	}
	return done
}

// LastArrival returns the final flow's start instant; running the
// engine well past it (plus a drain margin) completes the trace.
func (w *Workload) LastArrival() sim.Time { return w.Flows[len(w.Flows)-1].Arrival }

// TotalTimeouts sums RTO firings over all connections.
func (w *Workload) TotalTimeouts() uint64 {
	var total uint64
	for _, s := range w.senders {
		total += s.Stats().Timeouts
	}
	return total
}

// TotalRetransmissions sums retransmitted segments over all connections.
func (w *Workload) TotalRetransmissions() uint64 {
	var total uint64
	for _, s := range w.senders {
		total += s.Stats().Retransmissions
	}
	return total
}

// Cleanup detaches the remaining endpoints (receivers, plus senders of
// unfinished flows). Call it after the run, from a serial context.
func (w *Workload) Cleanup() {
	for i := range w.Flows {
		f := &w.Flows[i]
		id := w.cfg.BaseFlow + netsim.FlowID(i)
		if !f.done {
			w.hosts[f.Src].Unregister(id)
		}
		w.hosts[f.Dst].Unregister(id)
	}
}

// Digest folds every flow's trace entry and outcome — size, arrival,
// endpoints, completion time — into one FNV-1a word, in flow order. Two
// runs agree on the digest iff they agree on the whole trace and every
// FCT, making "same seed → same result" a one-word comparison.
func (w *Workload) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range w.Flows {
		f := &w.Flows[i]
		word(uint64(f.Size))
		word(uint64(f.Arrival))
		word(uint64(f.Src)<<32 | uint64(f.Dst))
		fct := uint64(math.MaxUint64)
		if f.done {
			fct = uint64(f.fct)
		}
		word(fct)
	}
	return h.Sum64()
}

// BucketStats summarizes completion times for one size bucket.
type BucketStats struct {
	// Bucket names the class: "small", "medium", or "large".
	Bucket string `json:"bucket"`
	// Flows and Completed count trace entries and finished transfers.
	Flows     int `json:"flows"`
	Completed int `json:"completed"`
	// MeanSeconds and the percentiles summarize completed FCTs
	// (exact nearest-rank over the recorded values, not histogram
	// interpolation).
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
}

// Buckets classifies sizes: small ≤ smallMax < medium < largeMin ≤ large.
func bucketOf(size, smallMax, largeMin int64) int {
	switch {
	case size <= smallMax:
		return 0
	case size >= largeMin:
		return 2
	default:
		return 1
	}
}

var bucketNames = [3]string{"small", "medium", "large"}

// FCTStats buckets the trace by size and returns exact FCT percentiles
// per bucket, in small/medium/large order.
func (w *Workload) FCTStats(smallMax, largeMin int64) []BucketStats {
	var fcts [3][]float64
	out := make([]BucketStats, 3)
	for i := range out {
		out[i].Bucket = bucketNames[i]
	}
	for i := range w.Flows {
		f := &w.Flows[i]
		b := bucketOf(f.Size, smallMax, largeMin)
		out[b].Flows++
		if f.done {
			out[b].Completed++
			fcts[b] = append(fcts[b], (f.fct - f.Arrival).Seconds())
		}
	}
	for b := range out {
		v := fcts[b]
		if len(v) == 0 {
			continue
		}
		sort.Float64s(v)
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		out[b].MeanSeconds = sum / float64(len(v))
		out[b].P50Seconds = nearestRank(v, 0.50)
		out[b].P95Seconds = nearestRank(v, 0.95)
		out[b].P99Seconds = nearestRank(v, 0.99)
	}
	return out
}

// nearestRank returns the q-quantile of sorted values by the
// nearest-rank definition: the smallest value with at least q·n values
// at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// RecordFCT registers one FCT histogram per size bucket and fills them
// from the completed flows, so dtmetrics/v1 snapshots carry the
// workload's p50/p95/p99 per bucket. Call after the run: histograms are
// not written concurrently. Bounds span 10 µs to ~18 s exponentially.
func (w *Workload) RecordFCT(reg *metrics.Registry, smallMax, largeMin int64) {
	var hists [3]*metrics.Histogram
	bounds := metrics.ExponentialBounds(10e-6, 1.5, 36)
	for b, name := range bucketNames {
		hists[b] = reg.Histogram("flowgen_fct_seconds",
			"flow completion time by size bucket", bounds, metrics.L("bucket", name))
	}
	for i := range w.Flows {
		f := &w.Flows[i]
		if f.done {
			hists[bucketOf(f.Size, smallMax, largeMin)].Observe((f.fct - f.Arrival).Seconds())
		}
	}
	reg.GaugeFunc("flowgen_flows_total", "trace length", func() float64 {
		return float64(len(w.Flows))
	})
	reg.GaugeFunc("flowgen_flows_completed", "finished transfers", func() float64 {
		return float64(w.Completed())
	})
}
