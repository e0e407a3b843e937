package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != TimeZero {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{500, 100, 300, 200, 400} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{100, 200, 300, 400, 500}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSimultaneousEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(1000, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order violated at index %d: got %d", i, v)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(777, func() {
		if e.Now() != 777 {
			t.Errorf("Now() inside handler = %v, want 777", e.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != 777 {
		t.Fatalf("Now() after run = %v, want 777", e.Now())
	}
}

func TestSchedulingIntoThePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRunUntilStopsAtHorizonAndAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, at := range []Time{100, 200, 300} {
		at := at
		e.Schedule(at, func() { ran = append(ran, at) })
	}
	if err := e.RunUntil(250); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %d events before horizon, want 2", len(ran))
	}
	if e.Now() != 250 {
		t.Fatalf("clock = %v after RunUntil(250), want 250", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ran) != 3 {
		t.Fatalf("ran %d events total, want 3", len(ran))
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	if err := e.RunUntil(1e9); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if e.Now() != 1e9 {
		t.Fatalf("clock = %v, want 1e9", e.Now())
	}
}

func TestCancelSkipsEvent(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ev := e.Schedule(100, func() { ran = true })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if got := e.Stats().Processed; got != 0 {
		t.Fatalf("Processed = %d, want 0", got)
	}
}

func TestCancelZeroEventRefIsNoop(t *testing.T) {
	var ev EventRef
	ev.Cancel() // must not panic
	if ev.Cancelled() {
		t.Fatal("zero EventRef reports cancelled")
	}
	if ev.Pending() {
		t.Fatal("zero EventRef reports pending")
	}
	if ev.At() != TimeNever {
		t.Fatalf("zero EventRef At = %v, want never", ev.At())
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine(1)
	first := e.Schedule(100, func() {})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The fired event's storage is recycled; a later event may occupy it.
	second := e.Schedule(200, func() {})
	first.Cancel() // stale handle: must not cancel the new occupant
	if second.Cancelled() {
		t.Fatal("stale Cancel hit a recycled event")
	}
	ran := false
	third := e.Schedule(300, func() { ran = true })
	_ = third
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("event after stale cancel did not run")
	}
}

func TestStopInterruptsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.Schedule(i, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("processed %d events before stop, want 3", count)
	}
	// The run can be resumed.
	if err := e.Run(); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if count != 10 {
		t.Fatalf("processed %d events total, want 10", count)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var fired Time = TimeNever
	e.Schedule(1000, func() {
		e.After(500*time.Nanosecond, func() { fired = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1500 {
		t.Fatalf("After fired at %v, want 1500", fired)
	}
}

func TestDeterministicRandomSource(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced diverging random streams")
		}
	}
}

func TestEngineStatsCounters(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1, func() {})
	ev := e.Schedule(2, func() {})
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := e.Stats()
	if s.Scheduled != 2 || s.Processed != 1 || s.Pending != 0 {
		t.Fatalf("Stats = %+v, want {2 1 0}", s)
	}
}

// Property: for any set of (time, id) pairs, the engine replays them in
// stable sorted order (time ascending, insertion order for ties).
func TestPropertyEventOrdering(t *testing.T) {
	type stamped struct {
		at  Time
		idx int
	}
	f := func(raw []uint32) bool {
		e := NewEngine(1)
		want := make([]stamped, len(raw))
		var got []stamped
		for i, r := range raw {
			at := Time(r % 1000) // force plenty of ties
			want[i] = stamped{at: at, idx: i}
			i := i
			e.Schedule(at, func() { got = append(got, stamped{at: at, idx: i}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any interleaving of pushes and pops, every pop returns
// exactly what a reference model (a list searched for the minimum under
// the full event key) would, whichever tier each event sits in. Instants
// are drawn near the tier boundary and tied with pending events on
// purpose.
func TestPropertyHeapMatchesReferenceModel(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newEventQueue()
		var ref []*Event
		var seq uint64
		now := Time(0)
		for _, op := range ops {
			if op%3 != 0 || q.Len() == 0 {
				var at Time
				switch rng.Intn(5) {
				case 0:
					at = now + Time(rng.Intn(64))
				case 1:
					at = now + Time(rng.Int63n(int64(3*nearWindow)))
				case 2:
					if at = q.nearEnd + Time(rng.Intn(2)); at < now {
						at = now
					}
				case 3:
					at = now
					if len(ref) > 0 {
						at = ref[rng.Intn(len(ref))].at
					}
				default:
					at = now + nearWindow*Time(1+rng.Intn(8))
				}
				ev := &Event{at: at, schedAt: Time(rng.Int63n(int64(at) + 1)),
					srcKey: rng.Intn(3) - 1, srcSeq: uint64(rng.Intn(3)), seq: seq}
				seq++
				q.push(ev)
				ref = append(ref, ev)
				continue
			}
			got := q.peek()
			q.pop()
			best := 0
			for i, ev := range ref {
				if ev.before(ref[best]) {
					best = i
				}
			}
			if got != ref[best] || !tiersSplitAtNearEnd(&q) {
				return false
			}
			now = got.at
			ref = append(ref[:best], ref[best+1:]...)
		}
		return q.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// tiersSplitAtNearEnd reports whether every near event fires at or
// before nearEnd and every far event after it.
func tiersSplitAtNearEnd(q *eventQueue) bool {
	for _, s := range q.near.items {
		if s.at > q.nearEnd || s.at != s.ev.at {
			return false
		}
	}
	for _, s := range q.far.items {
		if s.at <= q.nearEnd || s.at != s.ev.at {
			return false
		}
	}
	return true
}

// refEvent is one event in the reference model of
// TestPropertyEngineMatchesReferenceModel.
type refEvent struct {
	key   Event // at, schedAt, srcKey, srcSeq and seq; nothing else is set
	ref   EventRef
	timer int  // index of the timer that armed it, or -1
	epoch Time // nearEnd when it was scheduled
}

// engineModel runs an Engine in lockstep with a reference: the live events
// in a list, fired by searching for the minimum under the full key.
type engineModel struct {
	t       *testing.T
	e       *Engine
	rng     *rand.Rand
	live    []*refEvent
	timers  []*Timer
	armed   []*refEvent // the live event of each timer, or nil
	last    *refEvent   // the event that fired last
	limit   Time        // the latest instant the current run may fire
	nested  int         // actions handlers may still take
	checked bool        // false once a check has failed

	// Coverage of the two-tier edge cases.
	tieAcrossRefill, atNearEnd, pastNearEnd, keyedTies     int
	bothTierCompactions, horizonBetweenTiers, farOnlyPeeks int
}

func newEngineModel(t *testing.T, seed int64) *engineModel {
	m := &engineModel{t: t, e: NewEngine(seed), rng: rand.New(rand.NewSource(seed)), limit: maxTime, checked: true}
	for i := 0; i < 4; i++ {
		i := i
		m.timers = append(m.timers, NewTimer(m.e, func() { m.fired(m.armed[i]) }))
		m.armed = append(m.armed, nil)
	}
	return m
}

func (m *engineModel) failf(format string, args ...any) {
	if m.checked {
		m.t.Errorf(format, args...)
	}
	m.checked = false
}

// pickAt draws a firing instant aimed at the tier edges.
func (m *engineModel) pickAt() Time {
	now, end := m.e.Now(), m.e.queue.nearEnd
	switch m.rng.Intn(7) {
	case 0:
		return now + Time(m.rng.Intn(64))
	case 1:
		if end >= now {
			m.atNearEnd++
			return end
		}
	case 2:
		if end+1 >= now {
			m.pastNearEnd++
			return end + 1
		}
	case 3, 4:
		if len(m.live) > 0 {
			return m.live[m.rng.Intn(len(m.live))].key.at
		}
	case 5:
		return now + Time(m.rng.Int63n(int64(4*nearWindow)))
	}
	return now + nearWindow*Time(1+m.rng.Intn(40))
}

func (m *engineModel) newRef(at Time, timer int) *refEvent {
	return &refEvent{
		key:   Event{at: at, schedAt: m.e.Now(), srcKey: unkeyedSrc, seq: m.e.nextSeq},
		timer: timer,
		epoch: m.e.queue.nearEnd,
	}
}

// schedule enqueues one event through a random entry point.
func (m *engineModel) schedule() {
	at := m.pickAt()
	r := m.newRef(at, -1)
	fn := func(any) { m.fired(r) }
	if m.rng.Intn(2) == 0 {
		r.ref = m.e.ScheduleArg(at, fn, nil)
	} else {
		r.key.srcKey, r.key.srcSeq = m.rng.Intn(3), uint64(m.rng.Intn(3))
		r.ref = m.e.ScheduleSrcArg(at, r.key.srcKey, r.key.srcSeq, fn, nil)
	}
	m.live = append(m.live, r)
}

// cancelling runs cancel, which lazily cancels the pending event r, and
// notes whether it triggered a compaction while both tiers held
// cancelled events.
func (m *engineModel) cancelling(r *refEvent, cancel func()) {
	nearC, farC := 0, 0
	for _, s := range m.e.queue.near.items {
		if s.ev.cancelled {
			nearC++
		}
	}
	for _, s := range m.e.queue.far.items {
		if s.ev.cancelled {
			farC++
		}
	}
	if r.key.at <= m.e.queue.nearEnd {
		nearC++
	} else {
		farC++
	}
	before := m.e.compactions
	cancel()
	if m.e.compactions > before && nearC > 0 && farC > 0 {
		m.bothTierCompactions++
	}
	m.remove(r)
}

func (m *engineModel) cancel() {
	if len(m.live) == 0 {
		return
	}
	r := m.live[m.rng.Intn(len(m.live))]
	if r.timer >= 0 {
		m.cancelling(r, m.timers[r.timer].Stop)
		m.armed[r.timer] = nil
		return
	}
	m.cancelling(r, r.ref.Cancel)
}

// rearm resets a random timer, superseding its pending deadline.
func (m *engineModel) rearm() {
	i := m.rng.Intn(len(m.timers))
	if old := m.armed[i]; old != nil {
		m.cancelling(old, m.timers[i].Stop)
	}
	at := m.pickAt()
	r := m.newRef(at, i)
	m.timers[i].ResetAt(at)
	r.ref = m.timers[i].pending
	m.armed[i] = r
	m.live = append(m.live, r)
}

func (m *engineModel) remove(r *refEvent) {
	for i, x := range m.live {
		if x == r {
			m.live = append(m.live[:i], m.live[i+1:]...)
			return
		}
	}
	m.failf("event %+v is not live", r.key)
}

func (m *engineModel) min() *refEvent {
	var best *refEvent
	for _, r := range m.live {
		if best == nil || r.key.before(&best.key) {
			best = r
		}
	}
	return best
}

// fired checks that r is the reference's next event, retires it, and
// sometimes acts from inside the handler, as model code does.
func (m *engineModel) fired(r *refEvent) {
	if want := m.min(); want != r {
		m.failf("fired %+v, reference expects %+v", r.key, want.key)
	}
	if m.e.Now() != r.key.at {
		m.failf("fired %+v at %v", r.key, m.e.Now())
	}
	if r.key.at > m.limit {
		m.failf("fired %+v past the run's last instant %v", r.key, m.limit)
	}
	if l := m.last; l != nil && l.key.at == r.key.at {
		if l.epoch != r.epoch {
			m.tieAcrossRefill++
		}
		if l.key.srcKey != r.key.srcKey || l.key.schedAt != r.key.schedAt {
			m.keyedTies++
		}
	}
	m.remove(r)
	if r.timer >= 0 {
		m.armed[r.timer] = nil
	}
	m.last = r
	if m.nested > 0 && m.rng.Intn(2) == 0 {
		m.nested--
		m.act(m.rng.Intn(6)) // handlers schedule, cancel and rearm; they never run the engine
	}
}

// horizon draws a run horizon, often exactly between the tiers.
func (m *engineModel) horizon() Time {
	q := &m.e.queue
	switch m.rng.Intn(4) {
	case 0:
		return q.nearEnd
	case 1:
		return q.nearEnd + 1
	case 2:
		if len(q.far.items) > 0 {
			return q.far.items[0].at - Time(m.rng.Intn(2))
		}
	}
	return m.e.Now() + Time(m.rng.Int63n(int64(2*nearWindow)))
}

// between reports whether h separates a non-empty near tier from a
// non-empty far tier.
func (m *engineModel) between(h Time) bool {
	q := &m.e.queue
	if len(q.near.items) == 0 || len(q.far.items) == 0 {
		return false
	}
	for _, s := range q.near.items {
		if s.at >= h {
			return false
		}
	}
	return h <= q.far.items[0].at
}

func (m *engineModel) act(op int) {
	switch op {
	case 0, 1, 2:
		m.schedule()
	case 3:
		m.cancel()
	case 4, 5:
		m.rearm()
	default:
		h := m.horizon()
		if m.between(h) {
			m.horizonBetweenTiers++
		}
		from := m.e.Now()
		m.limit = h
		if err := m.e.RunUntil(h); err != nil {
			m.failf("RunUntil: %v", err)
		}
		m.limit = maxTime
		if r := m.min(); r != nil && r.key.at <= h {
			m.failf("RunUntil(%v) left %+v pending", h, r.key)
		}
		if want := max(from, h); m.e.Now() != want {
			m.failf("RunUntil(%v) left the clock at %v, want %v", h, m.e.Now(), want)
		}
	}
}

// check compares the queue's shape and head with the reference between
// top-level actions.
func (m *engineModel) check() {
	q := &m.e.queue
	if !tiersSplitAtNearEnd(q) {
		m.failf("tiers straddle nearEnd %v", q.nearEnd)
	}
	if got, want := m.e.Pending(), len(m.live)+m.e.cancelled; got != want {
		m.failf("Pending = %d, want %d live + %d cancelled", got, len(m.live), m.e.cancelled)
	}
	farOnly := len(q.near.items) == 0 && len(q.far.items) > 0
	var farHead Time
	if farOnly {
		m.farOnlyPeeks++
		farHead = q.far.items[0].at
	}
	got := peekAt(m.e)
	switch r := m.min(); {
	case farOnly && got != farHead:
		m.failf("queue head at %v with only the far tier queued, want its head %v", got, farHead)
	case r == nil && m.e.Pending() == 0 && got != TimeNever:
		m.failf("queue head at %v on an empty queue", got)
	case r != nil && (got > r.key.at || got < m.e.Now()):
		m.failf("queue head at %v, want in [%v, %v]", got, m.e.Now(), r.key.at)
	}
}

// TestPropertyEngineMatchesReferenceModel drives the engine with random
// Schedule, ScheduleSrcArg, Cancel and Timer-rearm sequences, from the
// top level and from inside handlers, interleaved with RunUntil, and
// checks every firing against the reference. The
// draws aim at the two-tier edges, and the test asserts that each was
// reached: instants exactly at and just past nearEnd, equal-at ties
// between events scheduled before and after a refill, keyed ties,
// compaction while both tiers hold cancelled events, horizons between the
// tiers and a queue peek with only the far tier queued.
func TestPropertyEngineMatchesReferenceModel(t *testing.T) {
	total := engineModel{}
	for seed := int64(1); seed <= 40; seed++ {
		m := newEngineModel(t, seed)
		for i := 0; i < 1500 && m.checked; i++ {
			m.nested = 4
			op := m.rng.Intn(10)
			if seed%4 == 0 { // cancel-heavy: fill both tiers, then cancel and rearm
				op = 0
				if i >= 300 {
					op = 3 + m.rng.Intn(3)
				}
			}
			m.act(op)
			m.check()
		}
		m.nested = 0
		if err := m.e.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if len(m.live) != 0 || m.e.Pending() != 0 {
			t.Fatalf("seed %d: %d live events never fired, %d pending", seed, len(m.live), m.e.Pending())
		}
		if !m.checked {
			t.Fatalf("seed %d diverged from the reference", seed)
		}
		total.tieAcrossRefill += m.tieAcrossRefill
		total.atNearEnd += m.atNearEnd
		total.pastNearEnd += m.pastNearEnd
		total.keyedTies += m.keyedTies
		total.bothTierCompactions += m.bothTierCompactions
		total.horizonBetweenTiers += m.horizonBetweenTiers
		total.farOnlyPeeks += m.farOnlyPeeks
	}
	for name, n := range map[string]int{
		"ties across a refill":         total.tieAcrossRefill,
		"instants at nearEnd":          total.atNearEnd,
		"instants just past nearEnd":   total.pastNearEnd,
		"keyed ties":                   total.keyedTies,
		"compactions over both tiers":  total.bothTierCompactions,
		"horizons between the tiers":   total.horizonBetweenTiers,
		"peeks with only the far tier": total.farOnlyPeeks,
	} {
		t.Logf("%s: %d", name, n)
		if n == 0 {
			t.Errorf("no %s exercised", name)
		}
	}
}

func TestTimerResetSupersedesDeadline(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	tm.Reset(100 * time.Nanosecond)
	tm.Reset(500 * time.Nanosecond)
	if err := e.RunUntil(200); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fires != 0 {
		t.Fatal("superseded deadline fired")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1", fires)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	tm.Reset(100 * time.Nanosecond)
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	if got := tm.Deadline(); got != 100 {
		t.Fatalf("Deadline = %v, want 100", got)
	}
	tm.Stop()
	if tm.Armed() {
		t.Fatal("timer armed after Stop")
	}
	if got := tm.Deadline(); got != TimeNever {
		t.Fatalf("Deadline after Stop = %v, want never", got)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fires != 0 {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerResetAt(t *testing.T) {
	e := NewEngine(1)
	var firedAt Time = TimeNever
	tm := NewTimer(e, func() { firedAt = e.Now() })
	tm.ResetAt(4321)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firedAt != 4321 {
		t.Fatalf("timer fired at %v, want 4321", firedAt)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimeHelpers(t *testing.T) {
	tt := FromDuration(3 * time.Microsecond)
	if tt != 3000 {
		t.Fatalf("FromDuration = %v, want 3000", tt)
	}
	if tt.Duration() != 3*time.Microsecond {
		t.Fatalf("Duration = %v", tt.Duration())
	}
	if tt.Seconds() != 3e-6 {
		t.Fatalf("Seconds = %v", tt.Seconds())
	}
	if !Time(1).Before(2) || !Time(2).After(1) {
		t.Fatal("Before/After comparison broken")
	}
	if got := Time(1500).String(); got != "1.500µs" {
		t.Fatalf("String = %q", got)
	}
	if got := TimeNever.String(); got != "never" {
		t.Fatalf("TimeNever.String = %q", got)
	}
}

// TestSourceKeyedTieOrder pins the source-keyed tie-break: events firing
// at the same (at, schedAt) run in (srcKey, srcSeq) order, with unkeyed
// events ahead of every keyed one, regardless of the order the
// scheduling calls were made in.
func TestSourceKeyedTieOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	rec := func(name string) func(any) {
		return func(any) { order = append(order, name) }
	}
	e.ScheduleSrcArg(300, 7, 0, rec("d7s0"), nil)
	e.ScheduleSrcArg(300, 2, 1, rec("d2s1"), nil)
	e.ScheduleSrcArg(300, 2, 0, rec("d2s0"), nil)
	e.ScheduleArg(300, rec("local"), nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"local", "d2s0", "d2s1", "d7s0"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie order %v, want %v", order, want)
		}
	}
}

func TestScheduleSrcArgRejectsNegativeKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative source key accepted")
		}
	}()
	NewEngine(1).ScheduleSrcArg(1, -1, 0, func(any) {}, nil)
}

// TestEngineRunFor pins the RunFor horizon semantics in-package.
func TestEngineRunFor(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(FromDuration(time.Microsecond/2), func() { ran = true })
	if err := e.RunFor(time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event inside the window did not run")
	}
	if want := FromDuration(time.Microsecond); e.Now() != want {
		t.Fatalf("clock at %v, want %v", e.Now(), want)
	}
}
