package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtdctcp"
	"dtdctcp/internal/baseline"
	"dtdctcp/internal/chaos"
)

// sweepAll runs every built-in profile once at a reduced scale.
func sweepAll(t *testing.T) []Report {
	t.Helper()
	var plans []*chaos.Plan
	for _, name := range chaos.Profiles() {
		p, err := chaos.Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	reports, _, err := Sweep(plans, SweepOptions{Flows: 20, Rate: 1 * dtdctcp.Gbps, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// TestDTDCTCPRecoversNoSlowerOnSomeProfile pins the acceptance
// criterion: on at least one shipped fault profile, DT-DCTCP both
// drains and re-locks, no slower than DCTCP under the identical
// perturbation.
func TestDTDCTCPRecoversNoSlowerOnSomeProfile(t *testing.T) {
	reports := sweepAll(t)
	byProfile := map[string]map[string]Report{}
	for _, r := range reports {
		if byProfile[r.Profile] == nil {
			byProfile[r.Profile] = map[string]Report{}
		}
		key := "dctcp"
		if len(r.Protocol) > 2 && r.Protocol[:3] == "dt-" {
			key = "dt"
		}
		byProfile[r.Profile][key] = r
	}
	wins := 0
	for profile, pair := range byProfile {
		dctcp, dt := pair["dctcp"], pair["dt"]
		if !dt.Drained || !dt.Relocked {
			continue
		}
		drainOK := !dctcp.Drained || dt.DrainTimeMs <= dctcp.DrainTimeMs
		relockOK := !dctcp.Relocked || dt.RelockTimeMs <= dctcp.RelockTimeMs
		if drainOK && relockOK {
			t.Logf("profile %q: DT drain %.2f ms relock %.2f ms vs DCTCP drain %.2f ms relock %.2f ms (drained=%v relocked=%v)",
				profile, dt.DrainTimeMs, dt.RelockTimeMs, dctcp.DrainTimeMs, dctcp.RelockTimeMs,
				dctcp.Drained, dctcp.Relocked)
			wins++
		}
	}
	if wins == 0 {
		t.Fatalf("DT-DCTCP recovered slower than DCTCP on every profile:\n%+v", reports)
	}
}

// TestSweepDeterministicAcrossWorkers: the sweep output is identical
// for any worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	plan, err := chaos.Profile("blackout")
	if err != nil {
		t.Fatal(err)
	}
	one, _, err := Sweep([]*chaos.Plan{plan}, SweepOptions{Flows: 12, Rate: 1 * dtdctcp.Gbps, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, _, err := Sweep([]*chaos.Plan{plan}, SweepOptions{Flows: 12, Rate: 1 * dtdctcp.Gbps, Seed: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(one)
	b, _ := json.Marshal(eight)
	if string(a) != string(b) {
		t.Fatalf("workers=1 vs workers=8 diverged:\n%s\n%s", a, b)
	}
}

func TestMergeKeepsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.json")
	if err := baseline.Merge(path, schema, &Snapshot{Label: "first"}); err != nil {
		t.Fatal(err)
	}
	if err := baseline.Merge(path, schema, &Snapshot{Label: "second"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f baseline.File[Snapshot]
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema {
		t.Fatalf("schema = %q", f.Schema)
	}
	if f.Current == nil || f.Current.Label != "second" {
		t.Fatalf("current = %+v", f.Current)
	}
	if len(f.History) != 1 || f.History[0].Label != "first" {
		t.Fatalf("history = %+v", f.History)
	}
}

func TestSelectPlans(t *testing.T) {
	all, err := selectPlans("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(chaos.Profiles()) {
		t.Fatalf("default selected %d plans, want all %d", len(all), len(chaos.Profiles()))
	}
	some, err := selectPlans("blackout, lossy", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].Name != "blackout" || some[1].Name != "lossy" {
		t.Fatalf("subset = %v", some)
	}
	if _, err := selectPlans("meteor", ""); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := selectPlans("", filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing plan file accepted")
	}
}

// TestRunWritesReport drives the whole CLI path on one profile: the
// table on the output stream, the metrics file, and the snapshot merged
// into a fresh report file.
func TestRunWritesReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chaos.json")
	mpath := filepath.Join(dir, "metrics.json")
	w, err := os.Create(filepath.Join(dir, "table.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = run([]string{"-profiles", "blackout", "-flows", "4", "-rate", "1000000000",
		"-workers", "1", "-label", "test", "-metrics", mpath, "-o", path}, w)
	if err != nil {
		t.Fatal(err)
	}
	table, err := os.ReadFile(w.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(table), "profile") || !strings.Contains(string(table), "blackout") {
		t.Fatalf("table missing header or profile row:\n%s", table)
	}
	if fi, err := os.Stat(mpath); err != nil || fi.Size() == 0 {
		t.Fatalf("metrics file missing or empty: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f baseline.File[Snapshot]
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema || f.Current == nil || f.Current.Label != "test" || len(f.Current.Reports) == 0 {
		t.Fatalf("report %q: current %+v", f.Schema, f.Current)
	}
	if err := run([]string{"-frobnicate"}, w); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
