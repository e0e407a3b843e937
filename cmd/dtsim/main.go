// Command dtsim runs one packet-level long-lived-flows scenario (the
// paper's Section VI-A setup) and prints queue statistics, optionally an
// ASCII queue trace and a CSV dump.
//
// Examples:
//
//	dtsim -protocol dctcp -k 40 -flows 100
//	dtsim -protocol dt-dctcp -k1 30 -k2 50 -flows 60 -plot
//	dtsim -protocol reno -flows 10 -csv queue.csv
//	dtsim -protocol dctcp+ -flows 40
//	dtsim -protocol hull -gamma 0.95 -flows 20
//	dtsim -protocol dctcp -sb-alpha 2 -flows 40
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dtdctcp"
	"dtdctcp/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dtsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dtsim", flag.ContinueOnError)
	var (
		protocol    = fs.String("protocol", "dctcp", "protocol: dctcp, dt-dctcp, dctcp+, hull, reno, reno-ecn")
		k           = fs.Int("k", 40, "single marking threshold in packets (dctcp, dctcp+, hull, reno-ecn)")
		k1          = fs.Int("k1", 30, "DT-DCTCP mark-on threshold in packets")
		k2          = fs.Int("k2", 50, "DT-DCTCP mark-off threshold in packets")
		g           = fs.Float64("g", 1.0/16, "DCTCP estimation gain")
		gamma       = fs.Float64("gamma", 0.95, "HULL phantom-queue drain fraction of line rate (hull)")
		sbAlpha     = fs.Float64("sb-alpha", 0, "shared-buffer dynamic-threshold α; > 0 pools the switch buffers")
		sbPool      = fs.Int("sb-pool", 0, "shared-buffer pool size in packets (0 = bottleneck buffer)")
		sbBneckOnly = fs.Bool("sb-bottleneck-only", false, "pool only the bottleneck port (diagnostic single-port limit)")
		flows       = fs.Int("flows", 10, "number of long-lived flows")
		rate        = fs.Int("rate-gbps", 10, "bottleneck rate in Gbps")
		rtt         = fs.Duration("rtt", 100*time.Microsecond, "base round-trip time")
		buffer      = fs.Int("buffer", 600, "bottleneck buffer in packets")
		duration    = fs.Duration("duration", 100*time.Millisecond, "measured interval")
		warmup      = fs.Duration("warmup", 20*time.Millisecond, "warmup excluded from statistics")
		seed        = fs.Int64("seed", 1, "random seed")
		plot        = fs.Bool("plot", false, "print an ASCII queue trace")
		csvPath     = fs.String("csv", "", "write the queue trace as CSV to this path")
		tracing     = fs.String("trace", "", "write per-packet bottleneck events as JSONL to this path")
		metricsOut  = fs.String("metrics", "", "write the observability snapshot as JSON to this path")
		promOut     = fs.String("metrics-prom", "", "write the snapshot in Prometheus text format to this path")
		metricsTick = fs.Duration("metrics-sample", 0, "sample queue/α/cwnd gauges into snapshot series at this virtual-time period")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		stop, err := metrics.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}

	var proto dtdctcp.Protocol
	switch *protocol {
	case "dctcp":
		proto = dtdctcp.DCTCP(*k, *g)
	case "dt-dctcp":
		proto = dtdctcp.DTDCTCP(*k1, *k2, *g)
	case "dctcp+":
		proto = dtdctcp.DCTCPPlus(*k, *g)
	case "hull":
		proto = dtdctcp.HULL(*k, *gamma, dtdctcp.Rate(*rate)*dtdctcp.Gbps, *g)
	case "reno":
		proto = dtdctcp.Reno()
	case "reno-ecn":
		proto = dtdctcp.RenoECN(*k)
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}

	cfg := dtdctcp.DumbbellConfig{
		Protocol:         proto,
		Flows:            *flows,
		Rate:             dtdctcp.Rate(*rate) * dtdctcp.Gbps,
		RTT:              *rtt,
		BufferPkts:       *buffer,
		Duration:         *duration,
		Warmup:           *warmup,
		Seed:             *seed,
		AlphaSampleEvery: time.Millisecond,
	}
	if *sbAlpha > 0 {
		cfg.SharedBuffer = dtdctcp.SharedBufferConfig{
			Alpha:          *sbAlpha,
			PoolPkts:       *sbPool,
			BottleneckOnly: *sbBneckOnly,
		}
	}
	if *plot || *csvPath != "" {
		cfg.QueueSampleEvery = *rtt / 4
	}
	if *metricsOut != "" || *promOut != "" {
		cfg.Metrics = true
	}
	cfg.MetricsSampleEvery = *metricsTick
	if *tracing != "" {
		f, err := os.Create(*tracing)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.TraceTo = f
	}

	res, err := dtdctcp.RunDumbbell(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "protocol      %s\n", res.Protocol)
	fmt.Fprintf(out, "flows         %d\n", res.Flows)
	fmt.Fprintf(out, "queue mean    %.1f packets\n", res.QueueMeanPkts)
	fmt.Fprintf(out, "queue stddev  %.1f packets\n", res.QueueStdPkts)
	fmt.Fprintf(out, "queue min/max %.0f / %.0f packets\n", res.QueueMinPkts, res.QueueMaxPkts)
	fmt.Fprintf(out, "alpha mean    %.3f\n", res.AlphaMean)
	fmt.Fprintf(out, "utilization   %.1f%%\n", res.Utilization*100)
	fmt.Fprintf(out, "marks/drops   %d / %d\n", res.Marks, res.Drops)
	fmt.Fprintf(out, "timeouts      %d\n", res.Timeouts)

	if *plot && res.QueueSeries != nil {
		fmt.Fprintln(out)
		fmt.Fprint(out, res.QueueSeries.AsciiPlot(100, 20))
	}
	if *csvPath != "" && res.QueueSeries != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.QueueSeries.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nqueue trace written to %s\n", *csvPath)
	}
	if *metricsOut != "" {
		if err := metrics.WriteFile(*metricsOut, []metrics.Named{{Name: "dumbbell", Snapshot: res.Metrics}}); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics written to %s\n", *metricsOut)
	}
	if *promOut != "" {
		f, err := os.Create(*promOut)
		if err != nil {
			return err
		}
		if err := res.Metrics.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "prometheus metrics written to %s\n", *promOut)
	}
	if *memProfile != "" {
		if err := metrics.WriteHeapProfile(*memProfile); err != nil {
			return err
		}
	}
	return nil
}
