package sim

import (
	"sort"
	"testing"
	"time"
)

// TestPendingBoundedUnderCancelHeavyWorkload drives the RTO-rearm
// pattern — schedule a far deadline, cancel it on the next "ACK", repeat
// — and asserts the queue does not accumulate the cancelled backlog.
// Before compaction existed, Pending() grew linearly with the number of
// rearms (every cancelled timer lingered until its deadline surfaced).
func TestPendingBoundedUnderCancelHeavyWorkload(t *testing.T) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	const rearms = 100000
	maxPending := 0
	for i := 0; i < rearms; i++ {
		// A long deadline that never fires before the next rearm.
		tm.Reset(time.Second)
		if p := e.Pending(); p > maxPending {
			maxPending = p
		}
	}
	// One live timer plus at most the compaction slack (cancelled events
	// may be up to half the queue plus the compaction floor).
	const bound = 2*compactMinCancelled + 16
	if maxPending > bound {
		t.Fatalf("Pending grew to %d under %d rearms, want ≤ %d", maxPending, rearms, bound)
	}
	tm.Stop()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := e.Stats().Processed; got != 0 {
		t.Fatalf("Processed = %d, want 0 (every deadline was superseded)", got)
	}
}

// TestCompactionPreservesOrder cancels every other event out of a large
// batch (forcing at least one compaction) and checks the survivors still
// run in exact (time, schedule-order) sequence.
func TestCompactionPreservesOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var refs []EventRef
	const n = 1000
	for i := 0; i < n; i++ {
		i := i
		// Many ties on At to exercise the seq tie-break after reheapify.
		refs = append(refs, e.Schedule(Time(i%10+1), func() { got = append(got, i) }))
	}
	for i := 0; i < n; i += 2 {
		refs[i].Cancel()
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != n/2 {
		t.Fatalf("ran %d events, want %d", len(got), n/2)
	}
	// Survivors are the odd indices, ordered by (at = i%10+1, seq = i):
	// compute the expected order with a stable sort by the same key.
	want := make([]int, 0, n/2)
	for at := 1; at <= 10; at++ {
		for i := 1; i < n; i += 2 {
			if i%10+1 == at {
				want = append(want, i)
			}
		}
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("order diverged at position %d: got %d, want %d", k, got[k], want[k])
		}
	}
}

// TestCancelDuringRunStillCompacts cancels from inside event handlers,
// which is where model code (ACK processing) actually cancels from.
func TestCancelDuringRunStillCompacts(t *testing.T) {
	e := NewEngine(1)
	const n = 10000
	var victims []EventRef
	fired := 0
	for i := 0; i < n; i++ {
		victims = append(victims, e.Schedule(Time(1000000+i), func() { fired++ }))
	}
	maxPending := 0
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(Time(1+i), func() {
			victims[i].Cancel()
			if p := e.Pending(); p > maxPending {
				maxPending = p
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 0 {
		t.Fatalf("%d cancelled events fired", fired)
	}
	// The queue starts at 2n (victims + cancellers); it must shrink as
	// cancellations accumulate rather than holding all n victims.
	if maxPending >= 2*n {
		t.Fatalf("Pending never shrank below initial %d", maxPending)
	}
}

// TestCompactionSpansBothTiers cancels three of every four events in both
// queue tiers, forcing a compaction that must empty the cancelled backlog
// from each, and checks the survivors still run in full-key order.
func TestCompactionSpansBothTiers(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(0, func() {}) // the near tier starts open at [0, nearWindow)
	var got []int
	var refs []EventRef
	const n = 400
	for i := 0; i < n; i++ {
		i := i
		at := Time(1000 + i%13) // near, with ties
		if i%2 == 1 {
			at = 5*nearWindow + Time(i%7) // far, with ties
		}
		refs = append(refs, e.Schedule(at, func() { got = append(got, i) }))
	}
	if len(e.queue.near.items) != n/2+1 || len(e.queue.far.items) != n/2 {
		t.Fatalf("tiers hold %d near and %d far events, want %d and %d",
			len(e.queue.near.items), len(e.queue.far.items), n/2+1, n/2)
	}
	for i := range refs {
		if i%4 != 0 {
			refs[i].Cancel()
		}
	}
	if e.Stats().Compactions == 0 {
		t.Fatal("cancelling 3/4 of the queue never compacted it")
	}
	held := 0
	for _, h := range []eventHeap{e.queue.near, e.queue.far} {
		for _, s := range h.items {
			if s.ev.cancelled {
				held++
			}
		}
	}
	if held != e.cancelled || e.Pending() != n/4+1+held {
		t.Fatalf("queue holds %d cancelled events (engine counts %d) of %d pending, want %d live",
			held, e.cancelled, e.Pending(), n/4+1)
	}
	if e.Pending() > n/2 {
		t.Fatalf("Pending = %d after compaction, want ≤ %d", e.Pending(), n/2)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want []int
	for i := 0; i < n; i += 4 {
		want = append(want, i)
	}
	at := func(i int) Time {
		if i%2 == 1 {
			return 5*nearWindow + Time(i%7)
		}
		return Time(1000 + i%13)
	}
	sort.SliceStable(want, func(a, b int) bool { return at(want[a]) < at(want[b]) })
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("order diverged at position %d: got %d, want %d", k, got[k], want[k])
		}
	}
}

// peekAt returns the firing instant at the head of the queue, or
// TimeNever when it is empty. A lazily cancelled head still counts.
func peekAt(e *Engine) Time {
	if ev := e.queue.peek(); ev != nil {
		return ev.at
	}
	return TimeNever
}

// TestPeekFarTierOnly covers the queue peek when the near tier is empty
// and the far tier is not: before the first refill, with the far head
// cancelled, and after a Stop leaves the near tier drained.
func TestPeekFarTierOnly(t *testing.T) {
	e := NewEngine(1)
	ref := e.Schedule(10*nearWindow, func() {})
	if len(e.queue.near.items) != 0 || len(e.queue.far.items) != 1 {
		t.Fatal("an event past the first window must wait in the far tier")
	}
	if got := peekAt(e); got != 10*nearWindow {
		t.Fatalf("head at %v, want %v", got, 10*nearWindow)
	}
	ref.Cancel()
	if got := peekAt(e); got != 10*nearWindow {
		t.Fatalf("head at %v with the head cancelled, want the conservative %v", got, 10*nearWindow)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := peekAt(e); got != TimeNever {
		t.Fatalf("head at %v on an empty queue, want never", got)
	}

	start := e.Now()
	e.Schedule(start+1000, e.Stop)
	e.Schedule(start+20*nearWindow, func() {})
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if len(e.queue.near.items) != 0 || len(e.queue.far.items) != 1 {
		t.Fatalf("after Stop the tiers hold %d near and %d far events, want 0 and 1",
			len(e.queue.near.items), len(e.queue.far.items))
	}
	if got := peekAt(e); got != start+20*nearWindow {
		t.Fatalf("head at %v, want %v", got, start+20*nearWindow)
	}
}
