// Command dtfabric runs the datacenter-fabric experiment: DCTCP against
// DT-DCTCP on a k-ary fat-tree or leaf-spine Clos under a trace-driven
// workload, reporting flow-completion-time percentiles per size bucket,
// queue summaries at the core and aggregation tiers, and mark/drop
// rates as machine-readable JSON.
//
// Reports follow the dtbench file conventions — {schema, current,
// history[]} with -o merging — but deliberately record no wall-clock
// state: a report is a pure function of its flags, so committed
// baselines diff cleanly.
//
// Usage:
//
//	dtfabric                          # baseline pair on a k=4 fat-tree
//	dtfabric -o FABRIC_baseline.json  # merge into the committed baseline
//	dtfabric -quick                   # small leaf-spine (CI smoke)
//	dtfabric -topo leafspine -leaves 4 -spines 2 -hosts-per-leaf 4
//	dtfabric -cdf datamining -load 0.8 -matrix permutation
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
	"dtdctcp/internal/flowgen"
)

// Config echoes the flags that shaped a snapshot, so a committed report
// documents its own provenance.
type Config struct {
	Topology     string  `json:"topology"`
	K            int     `json:"k,omitempty"`
	Leaves       int     `json:"leaves,omitempty"`
	Spines       int     `json:"spines,omitempty"`
	HostsPerLeaf int     `json:"hosts_per_leaf,omitempty"`
	RateGbps     float64 `json:"rate_gbps"`
	HopMicros    float64 `json:"hop_micros"`
	BufferPkts   int     `json:"buffer_pkts"`
	CDF          string  `json:"cdf"`
	Load         float64 `json:"load"`
	Flows        int     `json:"flows"`
	Matrix       string  `json:"matrix"`
	SmallMax     int64   `json:"small_max_bytes"`
	LargeMin     int64   `json:"large_min_bytes"`
	Seed         int64   `json:"seed"`
	MarkK        int     `json:"mark_k"`
	MarkK1       int     `json:"mark_k1"`
	MarkK2       int     `json:"mark_k2"`
}

// Snapshot is one complete dtfabric run: the protocols side by side.
type Snapshot struct {
	Label     string                  `json:"label"`
	GoVersion string                  `json:"go_version"`
	Config    Config                  `json:"config"`
	Results   []*dtdctcp.FabricResult `json:"results"`
}

const schema = "dtfabric/v1"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dtfabric:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dtfabric", flag.ContinueOnError)
	var (
		topology = fs.String("topo", "fattree", "topology: fattree or leafspine")
		k        = fs.Int("k", 4, "fat-tree arity (even)")
		leaves   = fs.Int("leaves", 4, "leaf-spine: number of leaf switches")
		spines   = fs.Int("spines", 4, "leaf-spine: number of spine switches")
		hostsPer = fs.Int("hosts-per-leaf", 4, "leaf-spine: hosts per leaf")
		rateGbps = fs.Float64("rate", 1, "link rate in Gbit/s (hosts and fabric)")
		hop      = fs.Duration("hop", 10*time.Microsecond, "per-link propagation delay")
		buffer   = fs.Int("buffer", 100, "per-port buffer in packets")
		cdfName  = fs.String("cdf", flowgen.WebSearchSmall, "flow-size CDF: builtin name or trace file path")
		load     = fs.Float64("load", 0.6, "offered load as a fraction of bisection bandwidth")
		flows    = fs.Int("flows", 50000, "trace length in flows")
		matrixS  = fs.String("matrix", "random", "traffic matrix: random, permutation, incast")
		smallMax = fs.Int64("small-max", 100_000, "largest small-bucket flow in bytes")
		largeMin = fs.Int64("large-min", 1_000_000, "smallest large-bucket flow in bytes")
		seed     = fs.Int64("seed", 1, "simulation seed")
		markK    = fs.Int("K", 20, "DCTCP marking threshold in packets")
		markK1   = fs.Int("K1", 15, "DT-DCTCP lower threshold in packets")
		markK2   = fs.Int("K2", 25, "DT-DCTCP upper threshold in packets")
		g        = fs.Float64("g", 1.0/16, "DCTCP EWMA gain")
		zoo      = fs.Bool("zoo", false, "also run the DCTCP+ and HULL zoo protocols over the fabric")
		quick    = fs.Bool("quick", false, "small leaf-spine and short trace for a fast smoke pass")
		out      = fs.String("o", "", "merge the snapshot into this JSON file (previous current moves to history)")
		label    = fs.String("label", "", "snapshot label")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick {
		*topology = "leafspine"
		*leaves, *spines, *hostsPer = 2, 2, 2
		*flows = 80
		*load = 0.4
	}

	cdf, err := loadCDF(*cdfName)
	if err != nil {
		return err
	}
	matrix, err := flowgen.ParseMatrix(*matrixS)
	if err != nil {
		return err
	}
	base := dtdctcp.FabricConfig{
		Topology:     *topology,
		K:            *k,
		Leaves:       *leaves,
		Spines:       *spines,
		HostsPerLeaf: *hostsPer,
		Rate:         dtdctcp.Rate(*rateGbps * float64(dtdctcp.Gbps)),
		HopDelay:     *hop,
		BufferPkts:   *buffer,
		CDF:          cdf,
		Load:         *load,
		Flows:        *flows,
		Matrix:       matrix,
		SmallMax:     *smallMax,
		LargeMin:     *largeMin,
		Seed:         *seed,
	}
	protocols := []dtdctcp.Protocol{
		dtdctcp.DCTCP(*markK, *g),
		dtdctcp.DTDCTCP(*markK1, *markK2, *g),
	}
	if *zoo {
		protocols = append(protocols,
			dtdctcp.DCTCPPlus(*markK, *g),
			dtdctcp.HULL(*markK, 0.95, base.Rate, *g),
		)
	}

	snap := &Snapshot{
		Label:     *label,
		GoVersion: runtime.Version(),
		Config: Config{
			Topology: *topology, RateGbps: *rateGbps,
			HopMicros: float64(*hop) / float64(time.Microsecond), BufferPkts: *buffer,
			CDF: *cdfName, Load: *load, Flows: *flows, Matrix: matrix.String(),
			SmallMax: *smallMax, LargeMin: *largeMin, Seed: *seed,
			MarkK: *markK, MarkK1: *markK1, MarkK2: *markK2,
		},
	}
	if *topology == "fattree" {
		snap.Config.K = *k
	} else {
		snap.Config.Leaves, snap.Config.Spines, snap.Config.HostsPerLeaf = *leaves, *spines, *hostsPer
	}

	for _, p := range protocols {
		cfg := base
		cfg.Protocol = p
		res, err := dtdctcp.RunFabric(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fmt.Fprintf(os.Stderr, "dtfabric: %s: %d/%d flows, digest %s, %d events\n",
			p.Name, res.Completed, res.Flows, res.Digest, res.Events)
		snap.Results = append(snap.Results, res)
	}

	if *out == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	return baseline.Merge(*out, schema, snap)
}

// loadCDF resolves a builtin name, falling back to a trace file path.
func loadCDF(name string) (*dtdctcp.FlowSizeCDF, error) {
	if c, err := dtdctcp.BuiltinFlowCDF(name); err == nil {
		return c, nil
	} else if _, statErr := os.Stat(name); statErr != nil {
		return nil, err // not a file either: report the builtin error
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dtdctcp.ParseFlowCDF(f)
}
