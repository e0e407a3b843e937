package conform

import (
	"context"
	"fmt"
	"math"
	"time"

	"dtdctcp/internal/core"
	"dtdctcp/internal/fluid"
	"dtdctcp/internal/runner"
)

// Observation collects the comparable quantities one scenario produced in
// each machinery.
type Observation struct {
	// Simulator (packet-level, core.RunDumbbell).
	SimQueueMean   float64       `json:"sim_queue_mean_pkts"`
	SimQueueStd    float64       `json:"sim_queue_std_pkts"`
	SimPeriod      time.Duration `json:"sim_period"`
	SimConfidence  float64       `json:"sim_confidence"`
	SimUtilization float64       `json:"sim_utilization"`

	// Fluid model (physical packet unit).
	FluidQueueMean  float64       `json:"fluid_queue_mean_pkts"`
	FluidQueueStd   float64       `json:"fluid_queue_std_pkts"`
	FluidAmplitude  float64       `json:"fluid_amplitude_pkts"`
	FluidPeriod     time.Duration `json:"fluid_period"`
	FluidConfidence float64       `json:"fluid_confidence"`

	// Describing-function analysis (paper packet unit).
	DFStable    bool          `json:"df_stable"`
	DFAmplitude float64       `json:"df_amplitude_pkts,omitempty"`
	DFPeriod    time.Duration `json:"df_period,omitempty"`
}

// Check is one pass/fail (or skipped) agreement assertion.
type Check struct {
	// Name identifies the comparison (e.g. "queue-mean/sim-vs-fluid").
	Name string `json:"name"`
	// Got and Ref are the compared values (sim-side first).
	Got float64 `json:"got,omitempty"`
	Ref float64 `json:"ref,omitempty"`
	// Detail states the tolerance the comparison was held to.
	Detail string `json:"detail"`
	// Pass reports the verdict; meaningless when Skipped is set.
	Pass bool `json:"pass"`
	// Skipped, when non-empty, says why the comparison does not apply
	// to this scenario (e.g. no credible periodicity to compare).
	Skipped string `json:"skipped,omitempty"`
}

// Checks is one grid point's verdict: its agreement assertions in a
// fixed order. Every report type embeds it, so Pass, Failures and
// Applied read the same way on all three grids.
type Checks []Check

// Pass reports whether every non-skipped check passed.
func (cs Checks) Pass() bool { return len(cs.Failures()) == 0 }

// Failures returns the non-skipped checks that failed.
func (cs Checks) Failures() []Check {
	var out []Check
	for _, c := range cs {
		if c.Skipped == "" && !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// Applied counts the checks that actually ran (were not skipped).
func (cs Checks) Applied() int {
	n := 0
	for _, c := range cs {
		if c.Skipped == "" {
			n++
		}
	}
	return n
}

// Report is the outcome of one scenario: what each machinery measured
// and how the cross-checks came out.
type Report struct {
	// Scenario names the grid point.
	Scenario string `json:"scenario"`
	// Obs holds the per-machinery measurements.
	Obs Observation `json:"observation"`
	// Checks are the agreement assertions, in a fixed order.
	Checks `json:"checks"`
}

// RunScenario executes one scenario in all three machineries and applies
// the scenario's tolerance checks.
func RunScenario(s Scenario) (Report, error) {
	rep := Report{Scenario: s.Name}

	sim, err := core.RunDumbbell(s.simConfig())
	if err != nil {
		return rep, fmt.Errorf("conform %s: sim: %w", s.Name, err)
	}
	rep.Obs.SimQueueMean = sim.QueueMeanPkts
	rep.Obs.SimQueueStd = sim.QueueStdPkts
	rep.Obs.SimPeriod = sim.OscPeriod
	rep.Obs.SimConfidence = sim.OscConfidence
	rep.Obs.SimUtilization = sim.Utilization

	fc, err := core.FluidConfig(s.Protocol, s.FluidParams(), s.Flows, s.Warmup+s.Duration)
	if err != nil {
		return rep, fmt.Errorf("conform %s: fluid config: %w", s.Name, err)
	}
	fc.BufferLimit = float64(s.BufferPkts)
	fr, err := fluid.Solve(fc)
	if err != nil {
		return rep, fmt.Errorf("conform %s: fluid: %w", s.Name, err)
	}
	rep.Obs.FluidQueueMean = fr.QueueMean
	rep.Obs.FluidQueueStd = fr.QueueStdDev
	rep.Obs.FluidAmplitude = fr.QueueAmplitude
	rep.Obs.FluidPeriod = time.Duration(fr.OscPeriod * float64(time.Second))
	rep.Obs.FluidConfidence = fr.OscConfidence

	verdict, err := core.AnalyzeStability(s.Protocol, s.DFParams(), s.Flows)
	if err != nil {
		return rep, fmt.Errorf("conform %s: analysis: %w", s.Name, err)
	}
	rep.Obs.DFStable = verdict.Stable
	if !verdict.Stable {
		rep.Obs.DFAmplitude = verdict.Cycle.Amplitude
		rep.Obs.DFPeriod = time.Duration(verdict.Cycle.PeriodSeconds() * float64(time.Second))
	}

	rep.Checks = applyChecks(s.Tol, rep.Obs)
	return rep, nil
}

// applyChecks evaluates every agreement assertion against the tolerance
// band. Checks that need a quantity a regime does not produce (a credible
// period, a predicted cycle) are marked skipped with the reason, so a
// grid point can never pass vacuously without saying so.
func applyChecks(tol Tolerances, o Observation) []Check {
	var checks []Check

	// Steady-state queue mean, sim vs fluid.
	meanBand := tol.QueueMeanAbsPkts + tol.QueueMeanRel*o.FluidQueueMean
	diff := o.SimQueueMean - o.FluidQueueMean
	if diff < 0 {
		diff = -diff
	}
	checks = append(checks, Check{
		Name:   "queue-mean/sim-vs-fluid",
		Got:    o.SimQueueMean,
		Ref:    o.FluidQueueMean,
		Detail: fmt.Sprintf("|Δ| = %.1f pkts ≤ %.1f", diff, meanBand),
		Pass:   diff <= meanBand,
	})

	// Oscillation magnitude (queue σ), sim vs fluid.
	sd := Check{
		Name: "queue-std/sim-vs-fluid",
		Got:  o.SimQueueStd,
		Ref:  o.FluidQueueStd,
	}
	if o.FluidQueueStd < 2 {
		sd.Skipped = fmt.Sprintf("fluid σ %.2f pkts too small for a ratio", o.FluidQueueStd)
	} else {
		ratio := o.SimQueueStd / o.FluidQueueStd
		sd.Detail = fmt.Sprintf("ratio %.2f in [%.2f, %.2f]", ratio, tol.StdDevRatioLo, tol.StdDevRatioHi)
		sd.Pass = ratio >= tol.StdDevRatioLo && ratio <= tol.StdDevRatioHi
	}
	checks = append(checks, sd)

	// Oscillation period, sim vs fluid (same estimator on both traces).
	pf := Check{
		Name: "period/sim-vs-fluid",
		Got:  o.SimPeriod.Seconds(),
		Ref:  o.FluidPeriod.Seconds(),
	}
	switch {
	case o.SimConfidence < tol.MinConfidence:
		pf.Skipped = fmt.Sprintf("sim periodicity confidence %.2f < %.2f", o.SimConfidence, tol.MinConfidence)
	case o.FluidConfidence < tol.MinConfidence:
		pf.Skipped = fmt.Sprintf("fluid periodicity confidence %.2f < %.2f", o.FluidConfidence, tol.MinConfidence)
	default:
		ratio := o.SimPeriod.Seconds() / o.FluidPeriod.Seconds()
		pf.Detail = fmt.Sprintf("ratio %.2f in [%.2f, %.2f]", ratio, tol.PeriodRatioLo, tol.PeriodRatioHi)
		pf.Pass = ratio >= tol.PeriodRatioLo && ratio <= tol.PeriodRatioHi
	}
	checks = append(checks, pf)

	// Limit-cycle period, sim vs describing function.
	pd := Check{
		Name: "period/sim-vs-df",
		Got:  o.SimPeriod.Seconds(),
		Ref:  o.DFPeriod.Seconds(),
	}
	switch {
	case o.DFStable:
		pd.Skipped = "analysis predicts no limit cycle"
	case o.SimConfidence < tol.MinConfidence:
		pd.Skipped = fmt.Sprintf("sim periodicity confidence %.2f < %.2f", o.SimConfidence, tol.MinConfidence)
	default:
		ratio := o.SimPeriod.Seconds() / o.DFPeriod.Seconds()
		pd.Detail = fmt.Sprintf("ratio %.2f in [%.2f, %.2f]", ratio, tol.DFPeriodRatioLo, tol.DFPeriodRatioHi)
		pd.Pass = ratio >= tol.DFPeriodRatioLo && ratio <= tol.DFPeriodRatioHi
	}
	checks = append(checks, pd)

	// Limit-cycle amplitude, sim vs describing function. The simulator's
	// sinusoid-equivalent amplitude is √2·σ (the DF's X is the amplitude
	// of the fundamental; a sinusoid of amplitude X has σ = X/√2).
	ad := Check{
		Name: "amplitude/sim-vs-df",
		Got:  math.Sqrt2 * o.SimQueueStd,
		Ref:  o.DFAmplitude,
	}
	switch {
	case o.DFStable:
		ad.Skipped = "analysis predicts no limit cycle"
	case o.SimConfidence < tol.MinConfidence:
		ad.Skipped = fmt.Sprintf("sim periodicity confidence %.2f < %.2f", o.SimConfidence, tol.MinConfidence)
	default:
		ratio := ad.Got / o.DFAmplitude
		ad.Detail = fmt.Sprintf("ratio %.2f in [%.2f, %.2f]", ratio, tol.DFAmpRatioLo, tol.DFAmpRatioHi)
		ad.Pass = ratio >= tol.DFAmpRatioLo && ratio <= tol.DFAmpRatioHi
	}
	checks = append(checks, ad)

	return checks
}

// RunGrid executes the scenarios concurrently on up to workers goroutines
// (values < 1 mean GOMAXPROCS). Every scenario runs in a private engine
// seeded only by its own configuration, so reports are byte-identical
// for any worker count and are returned in input order.
func RunGrid(ctx context.Context, scenarios []Scenario, workers int) ([]Report, error) {
	return runner.Map(ctx, len(scenarios), workers,
		func(_ context.Context, i int) (Report, error) {
			return RunScenario(scenarios[i])
		})
}
