package netsim

import (
	"fmt"

	"dtdctcp/internal/invariant"
)

// SharedBuffer is one switch-wide buffer pool shared by several output
// ports under dynamic-threshold allocation (Choudhury–Hahne): an arriving
// packet of size s is admitted at port i only while the pool has room
// (ΣQ + s ≤ B) and the port stays inside its dynamic allowance
//
//	Q_i + s ≤ T_i = α·(B − ΣQ).
//
// Small α behaves like a conservative static carve-up; large α approaches
// complete sharing, with the congested-ports fixed point T = αB/(1+αN)
// converging to an equal B/N split as α → ∞. With a single member port
// and α large enough that the allowance never binds, admission reduces
// exactly to the per-port tail-drop rule at buffer B — the uncontended
// limit the conformance grid pins verdict-for-verdict.
type SharedBuffer struct {
	total int     // B: pool capacity in bytes
	alpha float64 // dynamic-threshold α
	used  int     // ΣQ_i over member ports, in bytes
	ports []*Port
}

// NewSharedBuffer creates an empty pool of totalBytes with dynamic
// threshold α. Both must be positive.
func NewSharedBuffer(totalBytes int, alpha float64) (*SharedBuffer, error) {
	if totalBytes <= 0 {
		return nil, fmt.Errorf("netsim: shared buffer needs positive capacity, got %d", totalBytes)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("netsim: shared buffer needs positive alpha, got %g", alpha)
	}
	return &SharedBuffer{total: totalBytes, alpha: alpha}, nil
}

// Attach makes ports members of the pool. A port may belong to at most
// one pool, and must join before it has queued anything; attaching
// replaces the port's static buffer bound with the pool's dynamic
// allowance.
func (sb *SharedBuffer) Attach(ports ...*Port) error {
	for _, p := range ports {
		if p.shared != nil {
			return fmt.Errorf("netsim: port to %s already belongs to a shared buffer", p.peer.Name())
		}
		if p.queueLen != 0 {
			return fmt.Errorf("netsim: port to %s has %d bytes queued; attach before traffic starts",
				p.peer.Name(), p.queueLen)
		}
		p.shared = sb
		sb.ports = append(sb.ports, p)
	}
	return nil
}

// Total returns the pool capacity B in bytes.
func (sb *SharedBuffer) Total() int { return sb.total }

// Alpha returns the dynamic-threshold parameter α.
func (sb *SharedBuffer) Alpha() float64 { return sb.alpha }

// Used returns the pool occupancy ΣQ_i in bytes.
func (sb *SharedBuffer) Used() int { return sb.used }

// Ports returns the member ports (shared slice; do not mutate).
func (sb *SharedBuffer) Ports() []*Port { return sb.ports }

// Threshold returns the instantaneous dynamic allowance
// T = α·(B − ΣQ) in bytes.
func (sb *SharedBuffer) Threshold() float64 {
	return sb.alpha * float64(sb.total-sb.used)
}

// admit decides whether a packet of size bytes may enter a member port
// currently holding qlen bytes.
//
//dtlint:hotpath
func (sb *SharedBuffer) admit(qlen, size int) bool {
	free := sb.total - sb.used
	if size > free {
		return false
	}
	return float64(qlen+size) <= sb.alpha*float64(free)
}

// Resize changes the pool capacity at the current instant — the
// shared-buffer analogue of Port.SetBuffer, and what chaos buffer
// mutations call on pooled ports. Shrinking below the current occupancy
// evicts from the tail of the longest member queue (ties broken by
// attachment order) until the pool fits; evictions count as overflow
// drops on the owning port. Non-positive sizes are ignored.
func (sb *SharedBuffer) Resize(bytes int) {
	if bytes <= 0 {
		return
	}
	sb.total = bytes
	for sb.used > sb.total {
		victim := sb.ports[0]
		for _, p := range sb.ports[1:] {
			if p.queueLen > victim.queueLen {
				victim = p
			}
		}
		if victim.queue.len() == 0 {
			// Unreachable while used > 0; guard against counter drift.
			break
		}
		pkt := victim.queue.popTail()
		victim.addQueued(-pkt.Size)
		victim.policy.OnDeparture(victim.engine.Now(), victim.totalQueueLen())
		victim.drop(pkt, true)
		victim.notifyMonitor()
	}
	for _, p := range sb.ports {
		p.checkConservation()
	}
}

// checkConservation asserts, under -tags invariants, that the pool
// counter equals the sum of member occupancies and never exceeds the
// capacity.
func (sb *SharedBuffer) checkConservation() {
	if !invariant.Enabled {
		return
	}
	invariant.Assert(sb.used >= 0, "netsim: negative shared-buffer occupancy %d", sb.used)
	invariant.Assert(sb.used <= sb.total,
		"netsim: shared-buffer occupancy %d exceeds capacity %d", sb.used, sb.total)
	sum := 0
	for _, p := range sb.ports {
		sum += p.queueLen
	}
	invariant.Assert(sum == sb.used,
		"netsim: shared-buffer drift: member queues hold %d bytes, pool counter says %d", sum, sb.used)
}
