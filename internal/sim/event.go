package sim

// Event is a unit of scheduled work, owned and recycled by its Engine.
// Events are compared by firing time, then by the virtual instant they
// were scheduled, then by source key, then by sequence number, so two
// events scheduled for the same instant always run in a deterministic
// order. This tie-break is what makes runs reproducible.
//
// For events scheduled without a source key the scheduling instant is
// redundant — they order exactly like (at, seq). The extra components are
// the tie policy for link deliveries: a delivery carries the instant its
// port shipped it plus the port's stable (srcKey, srcSeq) identity, so
// same-instant ties between deliveries from different domains resolve by
// topology-derived identity rather than by the global interleaving of the
// two domains' scheduling calls. Every golden digest depends on this
// order; ordering by (at, seq) alone changes them.
//
// Model code never touches an Event directly: Schedule and After return
// an EventRef, a generation-checked handle that stays safe to use after
// the event has fired and its storage has been recycled for a later
// event.
type Event struct {
	// at is the virtual instant the event fires.
	at Time
	// schedAt is the virtual instant the event was scheduled.
	schedAt Time
	// srcKey identifies the scheduling source for keyed events (a stable
	// topology domain index ≥ 0); unkeyed events carry unkeyedSrc, which
	// sorts before every domain so local events win exact (at, schedAt)
	// ties against deliveries.
	srcKey int
	// srcSeq orders keyed events from the same source (a per-domain
	// monotone counter); zero for unkeyed events.
	srcSeq uint64
	// Exactly one of run/runArg is set. runArg carries its argument out
	// of band so hot paths can schedule without allocating a closure.
	run    func()
	runArg func(any)
	arg    any

	seq       uint64
	cancelled bool
	// gen increments every time the storage is recycled; EventRef
	// handles carry the generation they were issued for, which turns
	// use-after-recycle into a no-op instead of corrupting an unrelated
	// event.
	gen uint64
}

// EventRef is a handle to a scheduled event. The zero value is an
// unarmed reference: Cancel on it is a no-op and Pending reports false.
// A reference stays valid (as a no-op) after its event fires: the engine
// recycles event storage, and the generation check distinguishes the
// original event from any later occupant.
type EventRef struct {
	engine *Engine
	ev     *Event
	gen    uint64
}

// Pending reports whether the event is still queued and uncancelled.
//
//dtlint:hotpath
func (r EventRef) Pending() bool {
	return r.ev != nil && r.ev.gen == r.gen && !r.ev.cancelled
}

// At returns the firing instant of a pending event, or TimeNever once
// the event has fired or been cancelled.
//
//dtlint:hotpath
func (r EventRef) At() Time {
	if !r.Pending() {
		return TimeNever
	}
	return r.ev.at
}

// Cancel prevents a pending event from running. Cancelling an event that
// has already fired (or was already cancelled) is a no-op. Cancellation
// is lazy — the event stays queued and is skipped (and recycled) when it
// surfaces — but the engine compacts the queue when cancelled events
// outnumber live ones, so a cancel-heavy workload cannot grow the queue
// without bound.
//
//dtlint:hotpath
func (r EventRef) Cancel() {
	if r.ev == nil || r.ev.gen != r.gen || r.ev.cancelled {
		return
	}
	r.ev.cancelled = true
	r.engine.noteCancelled()
}

// Cancelled reports whether Cancel has been called on the event it
// references and the event has not yet been recycled.
//
//dtlint:hotpath
func (r EventRef) Cancelled() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.cancelled
}

// unkeyedSrc is the srcKey of events scheduled without a source
// identity. It sorts before every topology domain (all ≥ 0).
const unkeyedSrc = -1

// before reports whether a orders strictly before b under the full key
// (at, schedAt, srcKey, srcSeq, seq).
//
//dtlint:hotpath
func (a *Event) before(b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.srcKey != b.srcKey {
		return a.srcKey < b.srcKey
	}
	if a.srcSeq != b.srcSeq {
		return a.srcSeq < b.srcSeq
	}
	return a.seq < b.seq
}

// slot is one heap entry. The firing instant sits inline so the common
// comparison, between distinct instants, reads no Event; the rest of the
// key is read through ev only when the instants tie.
type slot struct {
	at Time
	ev *Event
}

//dtlint:hotpath
func (a slot) less(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ev.before(b.ev)
}

// eventHeap is a binary min-heap of slots ordered by the full event key.
// It implements the parts of container/heap we need by hand; the
// hand-rolled version avoids interface boxing on the hot path (tens of
// millions of events per experiment sweep).
type eventHeap struct {
	items []slot
}

//dtlint:hotpath
func (h *eventHeap) push(s slot) {
	//dtlint:allow hotalloc: the backing array is retained across pops; growth is amortized warm-up
	h.items = append(h.items, s)
	h.up(len(h.items) - 1)
}

// pop removes and returns the minimum slot; the heap must be non-empty.
// It walks the hole at the root down to a leaf along the smaller
// children, then sifts the last slot up from there (Floyd's bottom-up
// deletion): the last slot usually belongs near the bottom, so this costs
// one comparison per level instead of two.
//
//dtlint:hotpath
func (h *eventHeap) pop() slot {
	items := h.items
	n := len(items) - 1
	top, last := items[0], items[n]
	items[n] = slot{}
	items = items[:n]
	h.items = items
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && items[right].less(items[child]) {
			child = right
		}
		items[i] = items[child]
		i = child
	}
	items[i] = last
	h.up(i)
	return top
}

// up moves the slot at i towards the root until its parent precedes it.
//
//dtlint:hotpath
func (h *eventHeap) up(i int) {
	s := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = s
}

// down moves the slot at i towards the leaves until it precedes both
// children.
//
//dtlint:hotpath
func (h *eventHeap) down(i int) {
	n := len(h.items)
	s := h.items[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h.items[right].less(h.items[child]) {
			child = right
		}
		if !h.items[child].less(s) {
			break
		}
		h.items[i] = h.items[child]
		i = child
	}
	h.items[i] = s
}

// heapify restores the heap property over the whole backing slice in
// O(n), used after compaction filters out cancelled events.
//
//dtlint:hotpath
func (h *eventHeap) heapify() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// nearWindow is how far past the earliest far-tier event a refill
// extends the near tier: 1 ms of virtual time, a few RTTs at data-center
// scale.
const nearWindow Time = 1_000_000

// maxTime is the latest representable instant.
const maxTime Time = 1<<63 - 1

// eventQueue is the engine's priority queue, split in two tiers by firing
// instant: near holds every event with at ≤ nearEnd and far every event
// with at > nearEnd. Most pending events are far-future (RTO deadlines,
// flow starts scheduled up front, lazily cancelled timer rearms), yet
// almost every pop takes an event due within microseconds; keeping the
// far-future mass out of the near heap keeps that heap a few dozen
// entries deep.
//
// Pop order is exactly the single-heap order under the full key. Every
// near event fires strictly before every far event, so the near minimum
// is the global minimum; events tied on at land in the same tier, so no
// tie is ever split across tiers. When near runs dry, refill moves the
// far events with at < far.min.at + nearWindow into it.
type eventQueue struct {
	near, far eventHeap
	// nearEnd is the last instant the near tier admits. The first
	// window, [0, nearWindow), is open from the start, so a run's set-up
	// events land in the preallocated near heap; nearEnd only grows, at
	// each refill.
	nearEnd Time
}

func newEventQueue() eventQueue {
	return eventQueue{
		near:    eventHeap{items: make([]slot, 0, initialHeapCap)},
		nearEnd: nearWindow - tick,
	}
}

//dtlint:hotpath
func (q *eventQueue) Len() int { return len(q.near.items) + len(q.far.items) }

//dtlint:hotpath
func (q *eventQueue) push(ev *Event) {
	s := slot{at: ev.at, ev: ev}
	if s.at <= q.nearEnd {
		q.near.push(s)
	} else {
		q.far.push(s)
	}
}

// peek returns the earliest event, or nil when the queue is empty.
//
//dtlint:hotpath
func (q *eventQueue) peek() *Event {
	if len(q.near.items) == 0 {
		if len(q.far.items) == 0 {
			return nil
		}
		q.refill()
	}
	return q.near.items[0].ev
}

// pop removes the event the last peek returned.
//
//dtlint:hotpath
func (q *eventQueue) pop() { q.near.pop() }

// refill advances nearEnd one window past the earliest far event and
// moves every far event up to it into the empty near tier. The far heap
// yields them in key order, and a sorted slice is already a valid heap,
// so they are appended without sifting.
//
//dtlint:hotpath
func (q *eventQueue) refill() {
	head := q.far.items[0].at
	q.nearEnd = head + nearWindow - tick
	if q.nearEnd < head {
		q.nearEnd = maxTime // the window ran past the last instant
	}
	for len(q.far.items) > 0 && q.far.items[0].at <= q.nearEnd {
		//dtlint:allow hotalloc: near's backing array is retained across refills; growth is amortized warm-up
		q.near.items = append(q.near.items, q.far.pop())
	}
}
