package metrics

import "dtdctcp/internal/sim"

// InstrumentEngine registers pull metrics over the engine's existing
// counters: events scheduled, executed, and cancelled, free-list hits
// and misses plus the derived hit rate, compaction passes, and the
// pending-queue depth with its high-water mark. Everything reads
// sim.EngineStats at snapshot time, so the event loop is untouched.
func InstrumentEngine(r *Registry, e *sim.Engine) {
	stats := e.Stats
	r.CounterFunc("sim_events_scheduled_total",
		"Events ever enqueued on the engine.",
		func() uint64 { return stats().Scheduled })
	r.CounterFunc("sim_events_executed_total",
		"Events whose handler ran.",
		func() uint64 { return stats().Processed })
	r.CounterFunc("sim_events_cancelled_total",
		"Events lazily cancelled before firing.",
		func() uint64 { return stats().Cancelled })
	r.CounterFunc("sim_queue_compactions_total",
		"Compaction passes removing cancelled events from the heap.",
		func() uint64 { return stats().Compactions })
	r.CounterFunc("sim_free_list_hits_total",
		"Event allocations served from the free list.",
		func() uint64 { return stats().FreeHits })
	r.CounterFunc("sim_free_list_misses_total",
		"Event allocations that fell through to the heap.",
		func() uint64 { return stats().FreeMisses })
	r.GaugeFunc("sim_free_list_hit_rate",
		"Fraction of event allocations served from the free list.",
		func() float64 {
			s := stats()
			total := s.FreeHits + s.FreeMisses
			if total == 0 {
				return 0
			}
			return float64(s.FreeHits) / float64(total)
		})
	r.GaugeFunc("sim_events_pending",
		"Events currently queued (including uncompacted cancellations).",
		func() float64 { return float64(stats().Pending) })
	r.GaugeFunc("sim_events_pending_max",
		"High-water mark of the pending-event queue.",
		func() float64 { return float64(stats().MaxPending) })
}
