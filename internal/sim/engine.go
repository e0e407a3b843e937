package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dtdctcp/internal/invariant"
)

// ErrStopped is returned by Run variants when the engine was stopped
// explicitly before reaching the requested horizon.
var ErrStopped = errors.New("sim: engine stopped")

// initialHeapCap sizes the preallocated near-tier backing storage. A
// dumbbell run keeps a few hundred events in flight (one per queued
// packet plus timers); starting at this capacity means the near heap
// never reallocates in steady state. The far tier grows on demand.
const initialHeapCap = 512

// compactMinCancelled is the floor below which lazy cancellation is left
// alone: compacting a handful of events is not worth the O(n) pass.
const compactMinCancelled = 64

// Engine is the discrete-event simulation core. It owns the virtual clock
// and the pending-event queue. An Engine must not be shared across
// goroutines; all model code runs inside event handlers on the caller's
// goroutine. Concurrent experiments each own a private Engine (see
// internal/runner).
type Engine struct {
	now     Time
	queue   eventQueue
	nextSeq uint64
	rng     *rand.Rand
	stopped bool

	// free is the event free list: fired and compacted events return
	// here and are handed back out by Schedule, so the steady-state
	// event path allocates nothing.
	free []*Event
	// cancelled counts lazily cancelled events still in the queue; when
	// they outnumber live events the queue is compacted.
	cancelled int

	// processed counts events that actually ran (cancelled events are
	// excluded). Exposed through Stats for tests and benchmarks.
	processed uint64
	scheduled uint64

	// Observability counters behind EngineStats: free-list hits and
	// misses (the pool's effectiveness), total lazy cancellations,
	// compaction passes, and the high-water mark of the pending queue.
	// Plain field increments — the hot path stays branch- and
	// allocation-free whether or not anything ever reads them.
	freeHits       uint64
	freeMisses     uint64
	cancelledTotal uint64
	compactions    uint64
	maxPending     int
}

// NewEngine creates an engine whose random source is seeded with seed.
// The same seed always produces the same run.
func NewEngine(seed int64) *Engine {
	// The engine is the single sanctioned root of randomness: every other
	// construction site must draw from Engine.Rand() or an injected
	// *rand.Rand so one seed governs the whole run.
	return &Engine{
		rng:   rand.New(rand.NewSource(seed)), //dtlint:allow nondeterm: the one seeded root source
		queue: newEventQueue(),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. Model code must
// draw all randomness from here so a run is a pure function of its seed.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// alloc takes an event from the free list, or makes one.
//
//dtlint:hotpath
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.freeHits++
		return ev
	}
	e.freeMisses++
	//dtlint:allow hotalloc: pool miss is the cold path; steady state is all free-list hits
	return &Event{}
}

// recycle returns a popped event to the free list. Bumping the
// generation first invalidates every outstanding EventRef to it.
//
//dtlint:hotpath
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.run = nil
	ev.runArg = nil
	ev.arg = nil
	ev.cancelled = false
	//dtlint:allow hotalloc: the free list retains capacity; growth is amortized across the warm-up
	e.free = append(e.free, ev)
}

// enqueue pools an event and pushes it at the given instant.
//
//dtlint:hotpath
func (e *Engine) enqueue(at Time) *Event {
	return e.enqueueKeyed(at, unkeyedSrc, 0)
}

// enqueueKeyed enqueues an event stamped with the current instant and a
// source identity. The full key must be final before the heap push: every
// component participates in the heap ordering, so rewriting one
// afterwards would silently violate the heap invariant for same-instant
// ties.
//
//dtlint:hotpath
func (e *Engine) enqueueKeyed(at Time, srcKey int, srcSeq uint64) *Event {
	if at < e.now {
		//dtlint:allow hotalloc: formatting a panic message on the die path costs nothing in steady state
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", e.now, at))
	}
	ev := e.alloc()
	ev.at = at
	ev.schedAt = e.now
	ev.srcKey = srcKey
	ev.srcSeq = srcSeq
	ev.seq = e.nextSeq
	e.nextSeq++
	e.scheduled++
	e.queue.push(ev)
	if n := e.queue.Len(); n > e.maxPending {
		e.maxPending = n
	}
	return ev
}

// Schedule enqueues fn to run at the absolute instant at. Scheduling in
// the past (before Now) is a programming error and panics: allowing it
// silently would reorder causality.
//
//dtlint:hotpath
func (e *Engine) Schedule(at Time, fn func()) EventRef {
	ev := e.enqueue(at)
	ev.run = fn
	return EventRef{engine: e, ev: ev, gen: ev.gen}
}

// ScheduleArg enqueues fn to run at the absolute instant at with arg as
// its argument. The argument travels out of band so call sites with a
// long-lived fn (stored once on the owning struct) schedule without
// allocating a closure — the difference between one heap allocation per
// packet and none on the port transmit path.
//
//dtlint:hotpath
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) EventRef {
	ev := e.enqueue(at)
	ev.runArg = fn
	ev.arg = arg
	return EventRef{engine: e, ev: ev, gen: ev.gen}
}

// ScheduleSrcArg enqueues fn like ScheduleArg but additionally stamps the
// event with a stable source identity: srcKey is a topology domain index
// (≥ 0) and srcSeq a per-source monotone counter. Link deliveries use it
// so that two deliveries from different domains, tied on firing and
// scheduling instant, run in (srcKey, srcSeq) order — a property of the
// topology — instead of global scheduling order, which depends on event
// genealogy.
//
//dtlint:hotpath
func (e *Engine) ScheduleSrcArg(at Time, srcKey int, srcSeq uint64, fn func(any), arg any) EventRef {
	if srcKey < 0 {
		//dtlint:allow hotalloc: formatting a panic message on the die path costs nothing in steady state
		panic(fmt.Sprintf("sim: negative source key %d", srcKey))
	}
	ev := e.enqueueKeyed(at, srcKey, srcSeq)
	ev.runArg = fn
	ev.arg = arg
	return EventRef{engine: e, ev: ev, gen: ev.gen}
}

// After enqueues fn to run d after the current instant.
//
//dtlint:hotpath
func (e *Engine) After(d time.Duration, fn func()) EventRef {
	return e.Schedule(e.now.Add(d), fn)
}

// AfterArg enqueues fn to run d after the current instant with arg as
// its argument; see ScheduleArg.
//
//dtlint:hotpath
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) EventRef {
	return e.ScheduleArg(e.now.Add(d), fn, arg)
}

// noteCancelled records one lazy cancellation and compacts the queue
// when cancelled events outnumber live ones. RTO timers are rearmed (one
// cancel) per ACK, so without compaction a cancel-heavy run would hold
// its entire timer history in the heap until the deadlines surface.
//
//dtlint:hotpath
func (e *Engine) noteCancelled() {
	e.cancelled++
	e.cancelledTotal++
	if e.cancelled >= compactMinCancelled && e.cancelled*2 > e.queue.Len() {
		e.compact()
	}
}

// compact removes every cancelled event from both queue tiers in one
// O(n) pass and restores the heap property. Relative order of the
// survivors is unaffected: ordering is decided by the event key, which
// compaction does not touch, and no event changes tier.
//
//dtlint:hotpath
func (e *Engine) compact() {
	e.compactTier(&e.queue.near)
	e.compactTier(&e.queue.far)
	e.cancelled = 0
	e.compactions++
}

//dtlint:hotpath
func (e *Engine) compactTier(h *eventHeap) {
	items := h.items
	kept := items[:0]
	for _, s := range items {
		if s.ev.cancelled {
			e.recycle(s.ev)
		} else {
			//dtlint:allow hotalloc: kept appends into the items backing array it aliases; it can never outgrow it
			kept = append(kept, s)
		}
	}
	clear(items[len(kept):])
	h.items = kept
	h.heapify()
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of events still queued (including lazily
// cancelled ones that have not yet been compacted away).
func (e *Engine) Pending() int { return e.queue.Len() }

// Run processes events until the queue drains or Stop is called. It
// returns ErrStopped in the latter case.
func (e *Engine) Run() error {
	return e.run(maxTime)
}

// RunUntil processes events with firing times ≤ horizon. The clock is
// left at min(horizon, time of last event) — it advances to horizon if the
// queue drains early, so back-to-back RunUntil calls observe monotonic
// time.
func (e *Engine) RunUntil(horizon Time) error {
	err := e.run(horizon)
	if e.now < horizon {
		e.now = horizon
	}
	return err
}

// RunFor advances the simulation by d virtual time.
func (e *Engine) RunFor(d time.Duration) error {
	return e.RunUntil(e.now.Add(d))
}

// run processes events firing at or before last.
//
//dtlint:hotpath
func (e *Engine) run(last Time) error {
	e.stopped = false
	for {
		if e.stopped {
			return ErrStopped
		}
		next := e.queue.peek()
		if next == nil || next.at > last {
			return nil
		}
		e.queue.pop()
		if next.cancelled {
			e.cancelled--
			e.recycle(next)
			continue
		}
		if invariant.Enabled {
			//dtlint:allow hotalloc: assertion boxing is build-tag gated; alloc tests skip under -tags invariants
			invariant.Assert(next.at >= e.now, "sim: event time moved backwards: now=%v next=%v", e.now, next.at)
		}
		e.now = next.at
		e.processed++
		// Recycle before running: the handler's own storage is saved to
		// locals, so any event the handler schedules can reuse it
		// immediately (the common self-scheduling transmit chain then
		// ping-pongs between two pooled events for its whole lifetime).
		run, runArg, arg := next.run, next.runArg, next.arg
		e.recycle(next)
		if runArg != nil {
			runArg(arg)
		} else {
			run()
		}
	}
}

// Stats reports counters about engine activity.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Scheduled:   e.scheduled,
		Processed:   e.processed,
		Pending:     e.queue.Len(),
		Cancelled:   e.cancelledTotal,
		Compactions: e.compactions,
		FreeHits:    e.freeHits,
		FreeMisses:  e.freeMisses,
		MaxPending:  e.maxPending,
	}
}

// EngineStats is a snapshot of engine counters.
type EngineStats struct {
	// Scheduled is the total number of events ever enqueued.
	Scheduled uint64
	// Processed is the number of events whose Run hook executed.
	Processed uint64
	// Pending is the number of events still queued.
	Pending int
	// Cancelled is the total number of events lazily cancelled over the
	// run (whether or not they have been compacted away yet).
	Cancelled uint64
	// Compactions counts queue compaction passes.
	Compactions uint64
	// FreeHits and FreeMisses count event allocations served from the
	// free list versus fresh heap allocations; a warm steady state has a
	// hit rate of 1.
	FreeHits, FreeMisses uint64
	// MaxPending is the high-water mark of the pending-event queue.
	MaxPending int
}
