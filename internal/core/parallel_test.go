package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/runner"
)

// sweepBase is a deliberately tiny dumbbell so the determinism tests run
// whole sweeps in milliseconds.
func sweepBase() DumbbellConfig {
	return DumbbellConfig{
		Protocol:         DCTCP(40, 1.0/16),
		Rate:             1 * netsim.Gbps,
		RTT:              100 * time.Microsecond,
		BufferPkts:       100,
		Duration:         20 * time.Millisecond,
		Warmup:           5 * time.Millisecond,
		QueueSampleEvery: 100 * time.Microsecond,
		Seed:             42,
	}
}

func marshalSweep(t *testing.T, pts []FlowSweepPoint) []byte {
	t.Helper()
	b, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepDeterministicUnderParallelism is the PR's acceptance test: the
// same seed must yield byte-identical sweep results at -workers=1 and
// -workers=8. Each point owns a private engine, so the worker count can
// only change scheduling on the host, never inside the simulated world.
func TestSweepDeterministicUnderParallelism(t *testing.T) {
	flows := []int{2, 4, 8, 16, 24, 32}
	base := sweepBase()

	serial, err := SweepFlows(context.Background(), base, flows, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepFlows(context.Background(), base, flows, 8)
	if err != nil {
		t.Fatal(err)
	}

	sj, pj := marshalSweep(t, serial), marshalSweep(t, parallel)
	if !bytes.Equal(sj, pj) {
		t.Fatalf("sweep results differ between workers=1 and workers=8:\nserial:   %.200s\nparallel: %.200s", sj, pj)
	}

	// And repeated parallel runs must agree with themselves.
	again, err := SweepFlows(context.Background(), base, flows, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, marshalSweep(t, again)) {
		t.Fatal("two workers=8 sweeps with the same seed disagree")
	}
}

// TestSweepWorkersParallelDeterministic covers the testbed the same way:
// incast points mapped over testbed configs are byte-identical at 1 and
// 8 workers.
func TestSweepWorkersParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("incast rounds are slow")
	}
	counts := []int{2, 4, 6}
	sweep := func(workers int) []byte {
		pts, err := runner.Map(context.Background(), len(counts), workers,
			func(_ context.Context, i int) (*QueryResult, error) {
				return RunQuery(DefaultTestbed(DCTCP(40, 1.0/16), counts[i]), 16<<10, 2)
			})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(pts)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if sj, pj := sweep(1), sweep(8); !bytes.Equal(sj, pj) {
		t.Fatalf("testbed sweep differs between 1 and 8 workers:\nserial:   %.200s\nparallel: %.200s", sj, pj)
	}
}
