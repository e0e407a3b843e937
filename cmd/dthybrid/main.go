// Command dthybrid runs the hybrid fluid/packet co-simulation and its
// fully packet-level reference side by side: background flows as the
// Alizadeh fluid model against packet-level foreground traffic, then the
// identical scenario with every background flow as a real windowed
// sender. The report pairs the two runs' queue statistics, oscillation
// estimates, and foreground flow completion times, and records the
// event-count ratio — the hybrid's reason to exist is advancing the same
// simulated horizon in a small fraction of the reference's events.
//
// Reports follow the dtbench file conventions — {schema, current,
// history[]} with -o merging. Simulation results are pure functions of
// the flags; wall-clock timings are recorded alongside as advisory
// context (they vary by machine, the event counts do not).
//
// Usage:
//
//	dthybrid                          # 1000 fluid background flows vs packet reference
//	dthybrid -o HYBRID_baseline.json  # merge into the committed baseline
//	dthybrid -quick                   # small scenario (CI smoke)
//	dthybrid -bg 200 -fg 8 -proto dtdctcp -K1 30 -K2 50
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dtdctcp"
	"dtdctcp/internal/baseline"
)

// Config echoes the flags that shaped a snapshot, so a committed report
// documents its own provenance.
type Config struct {
	Proto       string  `json:"proto"`
	MarkK       int     `json:"mark_k,omitempty"`
	MarkK1      int     `json:"mark_k1,omitempty"`
	MarkK2      int     `json:"mark_k2,omitempty"`
	G           float64 `json:"g"`
	BgFlows     int     `json:"bg_flows"`
	FgFlows     int     `json:"fg_flows"`
	FgBytes     int64   `json:"fg_bytes"`
	FgGapMicros float64 `json:"fg_gap_micros"`
	RateGbps    float64 `json:"rate_gbps"`
	RTTMicros   float64 `json:"rtt_micros"`
	BufferPkts  int     `json:"buffer_pkts"`
	WarmupMs    float64 `json:"warmup_ms"`
	DurationMs  float64 `json:"duration_ms"`
	RTOMinMs    float64 `json:"rto_min_ms"`
	Seed        int64   `json:"seed"`
}

// Run is one mode's outcome: the simulation result (a pure function of
// the flags) plus this machine's wall-clock timing (advisory).
type Run struct {
	Result           *dtdctcp.HybridResult `json:"result"`
	WallSeconds      float64               `json:"wall_seconds"`
	EventsPerWallSec float64               `json:"events_per_wall_sec"`
}

// Snapshot is one complete dthybrid run: hybrid and reference modes on
// the same scenario and the event-count ratio between them.
type Snapshot struct {
	Label     string `json:"label"`
	GoVersion string `json:"go_version"`
	Config    Config `json:"config"`
	Hybrid    Run    `json:"hybrid"`
	Packet    Run    `json:"packet"`
	// EventRatio is packet events / hybrid events for the identical
	// simulated horizon — the deterministic speed-advantage measure the
	// baseline test pins.
	EventRatio float64 `json:"event_ratio"`
	// WallSpeedup is packet wall time / hybrid wall time on the machine
	// that produced the snapshot. Advisory: machines differ.
	WallSpeedup float64 `json:"wall_speedup"`
}

const schema = "dthybrid/v1"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dthybrid:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dthybrid", flag.ContinueOnError)
	var (
		proto    = fs.String("proto", "dctcp", "protocol: dctcp or dtdctcp")
		markK    = fs.Int("K", 40, "DCTCP marking threshold in packets")
		markK1   = fs.Int("K1", 30, "DT-DCTCP lower threshold in packets")
		markK2   = fs.Int("K2", 50, "DT-DCTCP upper threshold in packets")
		g        = fs.Float64("g", 1.0/16, "DCTCP EWMA gain")
		bg       = fs.Int("bg", 1000, "background flows (fluid in hybrid mode, real senders in the reference)")
		fg       = fs.Int("fg", 4, "foreground senders")
		fgBytes  = fs.Int64("fg-bytes", 20_000, "bytes per foreground transfer")
		fgGap    = fs.Duration("fg-gap", 500*time.Microsecond, "think time between foreground transfers")
		rateGbps = fs.Float64("rate", 10, "bottleneck rate in Gbit/s")
		rtt      = fs.Duration("rtt", 100*time.Microsecond, "zero-queue round-trip time")
		buffer   = fs.Int("buffer", 600, "bottleneck buffer in packets")
		warmup   = fs.Duration("warmup", 15*time.Millisecond, "settling interval excluded from statistics")
		duration = fs.Duration("duration", 45*time.Millisecond, "measured interval")
		rtoMin   = fs.Duration("rto-min", 10*time.Millisecond, "datacenter RTO floor for all senders")
		seed     = fs.Int64("seed", 1, "simulation seed")
		quick    = fs.Bool("quick", false, "small scenario for a fast smoke pass")
		out      = fs.String("o", "", "merge the snapshot into this JSON file (previous current moves to history)")
		label    = fs.String("label", "", "snapshot label")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick {
		*bg = 50
		*warmup = 5 * time.Millisecond
		*duration = 10 * time.Millisecond
	}

	var p dtdctcp.Protocol
	switch *proto {
	case "dctcp":
		p = dtdctcp.DCTCP(*markK, *g)
	case "dtdctcp":
		p = dtdctcp.DTDCTCP(*markK1, *markK2, *g)
	default:
		return fmt.Errorf("unknown protocol %q (want dctcp or dtdctcp)", *proto)
	}
	p.TCP.RTOMin = *rtoMin
	p.TCP.RTOInitial = *rtoMin

	base := dtdctcp.HybridConfig{
		Protocol:         p,
		BgFlows:          *bg,
		FgFlows:          *fg,
		FgBytes:          *fgBytes,
		FgGap:            *fgGap,
		Rate:             dtdctcp.Rate(*rateGbps * float64(dtdctcp.Gbps)),
		RTT:              *rtt,
		BufferPkts:       *buffer,
		Duration:         *duration,
		Warmup:           *warmup,
		QueueSampleEvery: *rtt / 5,
		Seed:             *seed,
	}

	snap := &Snapshot{
		Label:     *label,
		GoVersion: runtime.Version(),
		Config: Config{
			Proto: *proto, G: *g,
			BgFlows: *bg, FgFlows: *fg, FgBytes: *fgBytes,
			FgGapMicros: float64(*fgGap) / float64(time.Microsecond),
			RateGbps:    *rateGbps,
			RTTMicros:   float64(*rtt) / float64(time.Microsecond),
			BufferPkts:  *buffer,
			WarmupMs:    float64(*warmup) / float64(time.Millisecond),
			DurationMs:  float64(*duration) / float64(time.Millisecond),
			RTOMinMs:    float64(*rtoMin) / float64(time.Millisecond),
			Seed:        *seed,
		},
	}
	if *proto == "dctcp" {
		snap.Config.MarkK = *markK
	} else {
		snap.Config.MarkK1, snap.Config.MarkK2 = *markK1, *markK2
	}

	var err error
	snap.Hybrid, err = timedRun(base)
	if err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dthybrid: hybrid: digest %s, %d events, %.2fs wall\n",
		snap.Hybrid.Result.Digest, snap.Hybrid.Result.Events, snap.Hybrid.WallSeconds)

	ref := base
	ref.FullPacket = true
	snap.Packet, err = timedRun(ref)
	if err != nil {
		return fmt.Errorf("packet reference: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dthybrid: packet: digest %s, %d events, %.2fs wall\n",
		snap.Packet.Result.Digest, snap.Packet.Result.Events, snap.Packet.WallSeconds)

	if h := snap.Hybrid.Result.Events; h > 0 {
		snap.EventRatio = float64(snap.Packet.Result.Events) / float64(h)
	}
	if h := snap.Hybrid.WallSeconds; h > 0 {
		snap.WallSpeedup = snap.Packet.WallSeconds / h
	}
	fmt.Fprintf(os.Stderr, "dthybrid: event ratio %.1fx, wall speedup %.1fx\n",
		snap.EventRatio, snap.WallSpeedup)

	if *out == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	return baseline.Merge(*out, schema, snap)
}

// timedRun executes one mode and wraps it with this machine's timing.
func timedRun(cfg dtdctcp.HybridConfig) (Run, error) {
	start := time.Now()
	res, err := dtdctcp.RunHybrid(cfg)
	if err != nil {
		return Run{}, err
	}
	wall := time.Since(start).Seconds()
	r := Run{Result: res, WallSeconds: wall}
	if wall > 0 {
		r.EventsPerWallSec = float64(res.Events) / wall
	}
	return r, nil
}
