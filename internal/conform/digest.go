package conform

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"dtdctcp/internal/core"
	"dtdctcp/internal/runner"
)

// Digest is a compact deterministic fingerprint of one simulator run:
// event and marking counters in the clear, plus FNV-1a checksums over
// the sampled queue/α series, the per-flow byte counts, and the bit
// patterns of the float aggregates. Committed under testdata/golden/,
// a digest pins the simulator byte-for-byte — any change to event
// ordering, RNG consumption, or float arithmetic flips a hash — while
// staying small enough to diff by eye.
//
// Digests are stable across repeated runs, across -workers settings, and
// across builds of the same source on the same architecture. They are
// not guaranteed stable across architectures (the compiler may fuse
// multiply-adds differently); regenerate with
//
//	go test ./internal/conform -run Golden -update
//
// when a deliberate simulator change shifts them.
type Digest struct {
	// Scenario, Protocol and Flows echo the configuration.
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol"`
	Flows    int    `json:"flows"`

	// Events is the number of simulator events processed.
	Events uint64 `json:"events"`
	// Marks, Drops and Timeouts count bottleneck CE marks, overflow
	// drops, and sender RTOs.
	Marks    uint64 `json:"marks"`
	Drops    uint64 `json:"drops"`
	Timeouts uint64 `json:"timeouts"`
	// AckedBytes is the sum of per-flow acknowledged bytes.
	AckedBytes int64 `json:"acked_bytes"`
	// QueueSamples counts the decimated queue-series samples.
	QueueSamples int `json:"queue_samples"`

	// QueueHash and AlphaHash checksum the sampled series (instants and
	// values, exact float bits).
	QueueHash string `json:"queue_hash"`
	AlphaHash string `json:"alpha_hash"`
	// FlowHash checksums the per-flow acknowledged byte counts in flow
	// order.
	FlowHash string `json:"flow_hash"`
	// StatsHash checksums the float aggregates (queue mean/σ/min/max,
	// α mean, utilization, fairness, oscillation period and confidence).
	StatsHash string `json:"stats_hash"`
}

// DigestRun executes the scenario's packet simulation with full series
// sampling and fingerprints the result.
func DigestRun(s Scenario) (Digest, error) {
	cfg := s.simConfig()
	cfg.AlphaSampleEvery = s.RTT
	return digestDumbbell(s.Name, cfg)
}

// digestDumbbell runs one dumbbell configuration and fingerprints the
// result under the given scenario name. Both the paper grid's golden
// scenarios and the zoo goldens funnel through here, so the two suites
// pin the same observables with the same hashes.
func digestDumbbell(name string, cfg core.DumbbellConfig) (Digest, error) {
	res, err := core.RunDumbbell(cfg)
	if err != nil {
		return Digest{}, fmt.Errorf("conform %s: digest run: %w", name, err)
	}
	d := Digest{
		Scenario: name,
		Protocol: res.Protocol,
		Flows:    res.Flows,
		Events:   res.Events,
		Marks:    res.Marks,
		Drops:    res.Drops,
		Timeouts: res.Timeouts,
	}
	if res.QueueSeries != nil {
		d.QueueSamples = res.QueueSeries.Len()
		d.QueueHash = fmt.Sprintf("%016x", res.QueueSeries.Hash64())
	}
	if res.AlphaSeries != nil {
		d.AlphaHash = fmt.Sprintf("%016x", res.AlphaSeries.Hash64())
	}

	fh := fnv.New64a()
	var buf [8]byte
	for _, acked := range res.PerFlowAcked {
		d.AckedBytes += acked
		binary.LittleEndian.PutUint64(buf[:], uint64(acked))
		fh.Write(buf[:])
	}
	d.FlowHash = fmt.Sprintf("%016x", fh.Sum64())

	sh := fnv.New64a()
	for _, v := range []float64{
		res.QueueMeanPkts, res.QueueStdPkts, res.QueueMinPkts, res.QueueMaxPkts,
		res.AlphaMean, res.Utilization, res.Fairness,
		res.OscPeriod.Seconds(), res.OscConfidence,
	} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		sh.Write(buf[:])
	}
	d.StatsHash = fmt.Sprintf("%016x", sh.Sum64())
	return d, nil
}

// DigestGrid fingerprints the scenarios concurrently on up to workers
// goroutines (values < 1 mean GOMAXPROCS); digests come back in input
// order and are byte-identical for any worker count.
func DigestGrid(ctx context.Context, scenarios []Scenario, workers int) ([]Digest, error) {
	return runner.Map(ctx, len(scenarios), workers,
		func(_ context.Context, i int) (Digest, error) {
			return DigestRun(scenarios[i])
		})
}

// GoldenScenarios returns the golden-run suite: short, cheap runs that
// cover both protocols in the stable and oscillatory regimes plus a
// threshold variant — enough surface that a determinism regression
// anywhere in the engine, netsim, tcp, aqm, or stats layers flips at
// least one digest.
func GoldenScenarios() []Scenario {
	g := 1.0 / 16
	mk := func(name string, p core.Protocol, flows int) Scenario {
		s := paperScenario(name, p, flows)
		s.Warmup = 5 * time.Millisecond
		s.Duration = 20 * time.Millisecond
		return s
	}
	return []Scenario{
		mk("golden-dctcp-k40-n10", core.DCTCP(40, g), 10),
		mk("golden-dctcp-k40-n80", core.DCTCP(40, g), 80),
		mk("golden-dt3050-n10", core.DTDCTCP(30, 50, g), 10),
		mk("golden-dt3050-n80", core.DTDCTCP(30, 50, g), 80),
		mk("golden-dt4060-n40", core.DTDCTCP(40, 60, g), 40),
	}
}

// DigestZooRun fingerprints one zoo golden configuration — the DCTCP+
// pacing path, the phantom marker, or the shared-buffer admission path —
// through the same dumbbell digest the paper grid uses.
func DigestZooRun(z ZooGolden) (Digest, error) {
	return digestDumbbell(z.Name, z.Cfg)
}

// WriteGoldenFile marshals the digest to path as indented JSON with a
// trailing newline, the format the golden tests compare against.
func WriteGoldenFile(path string, d Digest) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadGoldenFile parses a digest written by WriteGoldenFile.
func ReadGoldenFile(path string) (Digest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Digest{}, err
	}
	var d Digest
	if err := json.Unmarshal(data, &d); err != nil {
		return Digest{}, fmt.Errorf("conform: parse golden %s: %w", path, err)
	}
	return d, nil
}
