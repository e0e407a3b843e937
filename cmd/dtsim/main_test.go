package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaultsQuick(t *testing.T) {
	err := run([]string{"-flows", "2", "-duration", "5ms", "-warmup", "1ms"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range []string{"dctcp", "dt-dctcp", "reno", "reno-ecn"} {
		args := []string{"-protocol", p, "-flows", "2", "-duration", "3ms", "-warmup", "1ms"}
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("protocol %s: %v", p, err)
		}
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if err := run([]string{"-protocol", "bbr"}, io.Discard); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunInvalidConfigSurfacesError(t *testing.T) {
	if err := run([]string{"-flows", "0"}, io.Discard); err == nil {
		t.Fatal("flows=0 accepted")
	}
}

func TestRunWritesCSVAndTrace(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "queue.csv")
	jsonl := filepath.Join(dir, "trace.jsonl")
	err := run([]string{"-flows", "2", "-duration", "3ms", "-warmup", "1ms",
		"-csv", csv, "-trace", jsonl}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "t,queue\n") {
		t.Fatalf("csv header: %q", string(data[:20]))
	}
	tr, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), `"kind":"enqueue"`) {
		t.Fatal("trace has no enqueue events")
	}
}

func TestRunCSVBadPath(t *testing.T) {
	if err := run([]string{"-flows", "2", "-duration", "2ms", "-warmup", "1ms",
		"-csv", "/nonexistent-dir/x.csv"}, io.Discard); err == nil {
		t.Fatal("unwritable csv path accepted")
	}
}

func TestRunMetricsPlotAndProfiles(t *testing.T) {
	dir := t.TempDir()
	mjson := filepath.Join(dir, "m.json")
	mprom := filepath.Join(dir, "m.prom")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out strings.Builder
	err := run([]string{"-flows", "2", "-duration", "3ms", "-warmup", "1ms",
		"-plot",
		"-metrics", mjson, "-metrics-prom", mprom,
		"-cpuprofile", cpu, "-memprofile", mem}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{mjson, mprom, cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("output %s missing or empty: %v", path, err)
		}
	}
	if !strings.Contains(out.String(), "metrics written to") {
		t.Fatal("missing metrics confirmation line")
	}
	if !strings.Contains(out.String(), "utilization") {
		t.Fatal("missing summary")
	}
}

func TestRunMetricsSampler(t *testing.T) {
	mjson := filepath.Join(t.TempDir(), "m.json")
	err := run([]string{"-flows", "2", "-duration", "3ms", "-warmup", "1ms",
		"-metrics", mjson, "-metrics-sample", "1ms"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mjson)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"series"`) {
		t.Fatal("sampled snapshot has no series")
	}
}

func TestRunBadOutputPaths(t *testing.T) {
	for name, args := range map[string][]string{
		"trace":      {"-trace", "/nonexistent-dir/t.jsonl"},
		"metrics":    {"-metrics", "/nonexistent-dir/m.json"},
		"prometheus": {"-metrics-prom", "/nonexistent-dir/m.prom"},
		"cpuprofile": {"-cpuprofile", "/nonexistent-dir/c.pprof"},
		"memprofile": {"-memprofile", "/nonexistent-dir/m.pprof"},
	} {
		full := append([]string{"-flows", "2", "-duration", "2ms", "-warmup", "1ms"}, args...)
		if err := run(full, io.Discard); err == nil {
			t.Errorf("unwritable %s path accepted", name)
		}
	}
}
