package metrics

import "dtdctcp/internal/sim"

// QueueDepthMonitor observes every queue-length change of a port into a
// histogram, in packets. It satisfies netsim.QueueMonitor structurally
// (this package does not import netsim — wiring lives in core), so a
// port can fan out to both the experiment's QueueRecorder and this
// monitor. QueueChanged is on the per-packet hot path: one division,
// one bucket lookup, no allocation.
type QueueDepthMonitor struct {
	hist    *Histogram
	pktSize float64
}

// NewQueueDepthMonitor creates a monitor recording into hist, converting
// byte depths to packets of size pktSize bytes.
func NewQueueDepthMonitor(hist *Histogram, pktSize int) *QueueDepthMonitor {
	if pktSize <= 0 {
		panic("metrics: queue-depth monitor needs a positive packet size")
	}
	return &QueueDepthMonitor{hist: hist, pktSize: float64(pktSize)}
}

// QueueChanged records the new depth. The sim.Time parameter keeps the
// signature aligned with netsim.QueueMonitor; the histogram is
// time-agnostic by design (the time-weighted view is QueueRecorder's
// job).
//
//dtlint:hotpath
func (m *QueueDepthMonitor) QueueChanged(_ sim.Time, qlenBytes int) {
	m.hist.Observe(float64(qlenBytes) / m.pktSize)
}
