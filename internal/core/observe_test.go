package core

import (
	"testing"
	"time"
)

// The observability layer is exercised end to end by cmd/dtsim and the
// metrics package; these tests pin it from inside core so the observer
// wiring (dumbbell, testbed, chaos, sampler) keeps its own coverage.

func TestDumbbellMetricsSnapshot(t *testing.T) {
	cfg := paperDumbbell(DCTCP(40, 1.0/16), 6)
	cfg.Duration = 30 * time.Millisecond
	cfg.Warmup = 10 * time.Millisecond
	cfg.Metrics = true
	cfg.Chaos = chaosPlan()
	res, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Metrics) == 0 {
		t.Fatal("Metrics snapshot missing despite Metrics: true")
	}
	names := map[string]bool{}
	for _, m := range res.Metrics.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{
		"sim_events_executed_total",
		"port_queue_depth_pkts",
		"tcp_alpha_mean",
		"chaos_actions_executed_total",
	} {
		if !names[want] {
			t.Errorf("snapshot lacks %q", want)
		}
	}
	if res.Metrics.EndSeconds <= 0 {
		t.Fatalf("EndSeconds = %v", res.Metrics.EndSeconds)
	}
}

func TestDumbbellMetricsSampler(t *testing.T) {
	cfg := paperDumbbell(DTDCTCP(30, 50, 1.0/16), 4)
	cfg.Duration = 20 * time.Millisecond
	cfg.Warmup = 5 * time.Millisecond
	cfg.MetricsSampleEvery = time.Millisecond // implies Metrics
	res, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Series) == 0 {
		t.Fatal("sampler series missing despite MetricsSampleEvery")
	}
	for _, s := range res.Metrics.Series {
		if len(s.T) == 0 || len(s.T) != len(s.Values) {
			t.Fatalf("series %q has %d/%d points", s.Name, len(s.T), len(s.Values))
		}
	}
}

func TestTestbedMetricsSnapshot(t *testing.T) {
	cfg := DefaultTestbed(DCTCP(21, 1.0/16), 4)
	cfg.Metrics = true
	res, err := RunIncast(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Metrics) == 0 {
		t.Fatal("testbed Metrics snapshot missing")
	}
}
