package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dtdctcp/internal/baseline"
)

func readFile(t *testing.T, path string) baseline.File[Snapshot] {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f baseline.File[Snapshot]
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMergeDemotesCurrentToHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")

	if err := baseline.Merge(path, schema, &Snapshot{Label: "first"}); err != nil {
		t.Fatal(err)
	}
	f := readFile(t, path)
	if f.Schema != schema || f.Current.Label != "first" || len(f.History) != 0 {
		t.Fatalf("after first merge: %+v", f)
	}

	if err := baseline.Merge(path, schema, &Snapshot{Label: "second"}); err != nil {
		t.Fatal(err)
	}
	f = readFile(t, path)
	if f.Current.Label != "second" {
		t.Fatalf("current = %q, want second", f.Current.Label)
	}
	if len(f.History) != 1 || f.History[0].Label != "first" {
		t.Fatalf("history = %+v, want [first]", f.History)
	}

	if err := baseline.Merge(path, schema, &Snapshot{Label: "third"}); err != nil {
		t.Fatal(err)
	}
	f = readFile(t, path)
	if len(f.History) != 2 || f.History[0].Label != "first" || f.History[1].Label != "second" {
		t.Fatalf("history = %+v, want [first second] oldest-first", f.History)
	}
}

func TestMergeRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := baseline.Merge(path, schema, &Snapshot{Label: "x"}); err == nil {
		t.Fatal("corrupt baseline accepted")
	}
}

func TestCommittedBaselineParses(t *testing.T) {
	// The repo's committed baseline must stay parseable and meet the
	// optimization floor this PR establishes: the steady-state event
	// kernel allocates nothing, and the dumbbell path allocates at least
	// 30% less per event than the pre-optimization seed in history.
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	var f baseline.File[Snapshot]
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema || f.Current == nil {
		t.Fatalf("baseline malformed: schema=%q current=%v", f.Schema, f.Current)
	}
	for _, m := range f.Current.Metrics {
		if m.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d/op in the committed baseline, want 0", m.Name, m.AllocsPerOp)
		}
	}
	if len(f.History) == 0 || f.Current.Dumbbell == nil || f.History[0].Dumbbell == nil {
		t.Fatal("baseline missing pre-optimization history entry")
	}
	seed := f.History[0].Dumbbell.AllocsPerEvent
	cur := f.Current.Dumbbell.AllocsPerEvent
	if seed <= 0 || cur > 0.7*seed {
		t.Errorf("allocs/event %.4f vs seed %.4f: want ≥30%% reduction", cur, seed)
	}
}

// TestMetricsOverheadSmoke runs the interleaved metrics-on/off pairs and
// pins the observability tax. Both sides must process the identical
// event stream (pull-based collection cannot perturb the simulation), and
// the confidence interval for the median per-pair slowdown must lie below
// overheadBoundPercent (8%): the tax measures about 4–5% here, and the pin
// still catches any regression that puts real work on the event path
// (those show up at tens of percent). The pairs are timed on the
// measuring thread's CPU clock, so the other test packages go test runs
// in parallel do not inflate either arm. An interval that still
// straddles the bound after every re-measuring round is reported as
// inconclusive, a skip, rather than a verdict either way. It measures the
// full-size dumbbell, not -quick: on the short quick run the registry's
// fixed sampling cost amortizes over so few events that the honest tax
// alone exceeds the pin.
func TestMetricsOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive smoke test")
	}
	o := measureOverhead(false)
	if o.Events == 0 {
		t.Fatal("overhead pairs processed no events")
	}
	if o.BaseNsPerEvent <= 0 {
		t.Fatalf("degenerate base timing: %.2f ns/event", o.BaseNsPerEvent)
	}
	if o.Runs < overheadPairs {
		t.Fatalf("measured %d pairs, want at least %d", o.Runs, overheadPairs)
	}
	summary := fmt.Sprintf("metrics overhead %.2f%% per event, %.0f%% CI [%.2f%%, %.2f%%] over %d %s pairs",
		o.DeltaPercent, overheadConfidence*100, o.CILowPercent, o.CIHighPercent, o.Runs, o.Clock)
	switch o.Verdict {
	case "pass":
		t.Log(summary)
	case "fail":
		t.Fatalf("%s, want < %v%%", summary, overheadBoundPercent)
	default:
		t.Skipf("inconclusive: %s straddles the %v%% bound", summary, overheadBoundPercent)
	}
}

// TestMedianCI pins the order statistics the overhead interval uses and
// the sample-range fallback for tiny samples.
func TestMedianCI(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: medianCI must sort a copy
		}
		return xs
	}
	cases := []struct {
		n      int
		lo, hi float64
	}{
		{1, 1, 1},
		{5, 1, 5},   // P(B ≤ 0) = 1/32 > 2.5%: no interval narrower than the range
		{9, 2, 8},   // P(B ≤ 1) = 10/512 ≤ 2.5% < P(B ≤ 2)
		{18, 5, 14}, // P(B ≤ 4) ≈ 1.5% ≤ 2.5% < P(B ≤ 5) ≈ 4.8%
	}
	for _, c := range cases {
		in := seq(c.n)
		lo, hi := medianCI(in, 0.95)
		if lo != c.lo || hi != c.hi {
			t.Errorf("medianCI(n=%d) = [%v, %v], want [%v, %v]", c.n, lo, hi, c.lo, c.hi)
		}
		if in[0] != float64(c.n) {
			t.Fatalf("medianCI reordered its input")
		}
	}
}

// TestMedian pins the estimator the overhead pairing rests on, including
// the even-length mean and input immutability.
func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-10, 2, 1000, 3, 4}, 3}, // outlier pairs do not move the median
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v -> %v", c.in, in)
			}
		}
	}
}
