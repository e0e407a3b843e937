package workload

import (
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/tcp"
)

func TestForegroundRepeatsTransfersAndRecordsFCTs(t *testing.T) {
	e, hosts, rcv, _ := star(t, 3, 1*netsim.Gbps, 400, aqm.NewSingleThresholdPackets(40, 1500))
	w := StartForeground(e, ForegroundConfig{
		Hosts:       hosts,
		Receiver:    rcv,
		Bytes:       10_000,
		Gap:         200 * time.Microsecond,
		TCP:         tcp.DefaultConfig(tcp.DCTCP),
		BaseFlow:    1,
		StartJitter: 50 * time.Microsecond,
		Horizon:     20 * time.Millisecond,
		Warmup:      2 * time.Millisecond,
	})
	if err := e.RunFor(25 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := w.Transfers(); got < 3*10 {
		t.Fatalf("only %d transfers completed across 3 flows in 20 ms", got)
	}
	fcts := w.FCTs()
	if len(fcts) == 0 {
		t.Fatal("no post-warmup FCTs recorded")
	}
	// Warmup excludes early transfers: strictly fewer FCTs than
	// completions, and every recorded one is positive.
	if len(fcts) >= w.Transfers() {
		t.Fatalf("%d FCTs vs %d transfers: warmup excluded nothing", len(fcts), w.Transfers())
	}
	for i, fct := range fcts {
		if fct <= 0 {
			t.Fatalf("FCT[%d] = %v, want > 0", i, fct)
		}
	}
	_ = w.Timeouts() // must not panic
}

// TestForegroundHorizonStopsNewTransfers pins the horizon contract: no
// transfer starts at or after it, so a run past the horizon adds no
// completions.
func TestForegroundHorizonStopsNewTransfers(t *testing.T) {
	e, hosts, rcv, _ := star(t, 2, 1*netsim.Gbps, 400, nil)
	w := StartForeground(e, ForegroundConfig{
		Hosts:    hosts,
		Receiver: rcv,
		Bytes:    5_000,
		Gap:      100 * time.Microsecond,
		TCP:      tcp.DefaultConfig(tcp.DCTCP),
		BaseFlow: 1,
		Horizon:  5 * time.Millisecond,
	})
	if err := e.RunFor(6 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	atHorizon := w.Transfers()
	if atHorizon == 0 {
		t.Fatal("no transfers before the horizon")
	}
	if err := e.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := w.Transfers(); got != atHorizon {
		t.Fatalf("transfers kept completing after the horizon: %d -> %d", atHorizon, got)
	}
}

// TestForegroundFCTsAreFlowOrdered pins the determinism-relevant
// accessor contract: FCTs concatenate per-flow histories in flow order,
// so the sequence is invariant to the interleaving of completions.
func TestForegroundFCTsAreFlowOrdered(t *testing.T) {
	e, hosts, rcv, _ := star(t, 2, 1*netsim.Gbps, 400, nil)
	w := StartForeground(e, ForegroundConfig{
		Hosts:    hosts,
		Receiver: rcv,
		Bytes:    5_000,
		Gap:      500 * time.Microsecond,
		TCP:      tcp.DefaultConfig(tcp.DCTCP),
		BaseFlow: 1,
		Horizon:  10 * time.Millisecond,
	})
	if err := e.RunFor(12 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, f := range w.flows {
		want = append(want, f.fcts...)
	}
	got := w.FCTs()
	if len(got) != len(want) {
		t.Fatalf("FCTs() returned %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("FCTs()[%d] = %v, want %v (flow-order concatenation)", i, got[i], want[i])
		}
	}
}
