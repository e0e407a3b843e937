package conform

import (
	"context"
	"fmt"
	"time"

	"dtdctcp/internal/core"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/runner"
)

// Protocol & switch zoo conformance: the repo's rival mechanisms — the
// DCTCP+ slow-timer sender, HULL's phantom-queue marker, and the
// shared-buffer dynamic-threshold switch — each come with a claim that
// can drift silently: DCTCP+ must tame incast without giving up the
// transfer, the phantom queue must pin utilization at γ while holding the
// real queue near empty, and the shared-buffer switch must degenerate
// exactly to per-port tail-drop in the uncontended single-port limit.
// This grid turns each claim into a scenario with declared tolerances;
// checks whose inputs a regime does not produce are skipped with the
// reason, and the anti-vacuity test in zoo_conform_test.go asserts every
// scenario still applies at least two real checks.

// ZooTolerances declares the agreement bands of one zoo scenario. Only
// the fields its family reads are meaningful.
type ZooTolerances struct {
	// CompletionRatioLo/Hi bound candidate mean incast completion /
	// rival mean incast completion (incast family).
	CompletionRatioLo, CompletionRatioHi float64
	// GoodputRatioLo/Hi bound candidate mean goodput / rival mean
	// goodput (incast family).
	GoodputRatioLo, GoodputRatioHi float64
	// PlusBaseRatioLo/Hi bound DCTCP+ mean completion / DCTCP baseline
	// mean completion: the slow timer must track the baseline it
	// augments, in and out of collapse (incast family).
	PlusBaseRatioLo, PlusBaseRatioHi float64
	// ReliefRatioMax bounds DT-DCTCP mean completion / DCTCP baseline
	// mean completion in the collapse regime — the marking-side fix must
	// measurably ease the collapse (incast family).
	ReliefRatioMax float64
	// UtilizationAbs bounds |utilization − γ| for phantom scenarios
	// with γ < 1, and the shortfall below full utilization elsewhere.
	UtilizationAbs float64
	// RealQueueFrac bounds the phantom run's real queue mean as a
	// fraction of the marking threshold K (the HULL headroom claim).
	RealQueueFrac float64
	// QueueMeanRatioLo/Hi bound pooled/phantom queue mean against a
	// reference run's.
	QueueMeanRatioLo, QueueMeanRatioHi float64
	// QueueCapSlackPkts is the allowance above the dynamic-threshold
	// fixed point αB/(1+α) the pooled queue max may reach (in-flight
	// rounding, one packet in serialization).
	QueueCapSlackPkts float64
}

// DefaultZooTolerances is the band used by the standard zoo grid.
func DefaultZooTolerances() ZooTolerances {
	return ZooTolerances{
		CompletionRatioLo: 0.05,
		CompletionRatioHi: 3.0,
		GoodputRatioLo:    0.05,
		GoodputRatioHi:    1.5,
		PlusBaseRatioLo:   0.5,
		PlusBaseRatioHi:   1.3,
		ReliefRatioMax:    0.75,
		UtilizationAbs:    0.10,
		RealQueueFrac:     1.0,
		QueueMeanRatioLo:  0.3,
		QueueMeanRatioHi:  3.0,
		QueueCapSlackPkts: 4,
	}
}

// ZooKind selects a scenario family.
type ZooKind int

// Zoo scenario families.
const (
	// ZooIncast runs the testbed incast with DCTCP+, DT-DCTCP and the
	// DCTCP baseline and compares collapse behaviour.
	ZooIncast ZooKind = iota + 1
	// ZooPhantom runs a HULL phantom-queue dumbbell against the
	// analytic virtual-queue prediction (utilization pins at γ, real
	// queue stays under the threshold) and a DCTCP reference.
	ZooPhantom
	// ZooSharedBuffer runs a shared-buffer dumbbell against the
	// private-buffer reference — verdict-exact in the single-port
	// limit, band-compared under real sharing.
	ZooSharedBuffer
)

// ZooScenario is one zoo grid point.
type ZooScenario struct {
	// Name identifies the scenario in reports and golden files.
	Name string
	// Kind selects the family; the fields below it are read per family.
	Kind ZooKind

	// Incast family: worker count and rounds on the paper's testbed.
	// Collapse declares which regime the fan-in sits in: below the
	// cliff the checks demand a loss-free incast, above it they demand
	// the collapse actually happens and DT-DCTCP relieves it.
	Workers  int
	Rounds   int
	Collapse bool

	// Phantom and shared-buffer families: dumbbell shape.
	Flows      int
	Rate       netsim.Rate
	RTT        time.Duration
	BufferPkts int
	KPkts      int
	Warmup     time.Duration
	Duration   time.Duration

	// Gamma is the phantom drain fraction γ (phantom family).
	Gamma float64

	// Alpha and SinglePortLimit shape the shared-buffer pool: a
	// whole-switch pool at Alpha, or the bottleneck-only uncontended
	// limit pinned verdict-exact against the private-buffer run.
	Alpha           float64
	SinglePortLimit bool

	// Seed drives the simulator's randomness.
	Seed int64
	// Tol is this scenario's agreement band.
	Tol ZooTolerances
}

// ZooReport is the outcome of one zoo grid point.
type ZooReport struct {
	Scenario string `json:"scenario"`
	Checks   `json:"checks"`
}

// zooG is the grid's EWMA gain, the paper's 1/16.
const zooG = 1.0 / 16

// RunZooScenario executes one zoo grid point and applies its checks.
func RunZooScenario(s ZooScenario) (ZooReport, error) {
	rep := ZooReport{Scenario: s.Name}
	var err error
	switch s.Kind {
	case ZooIncast:
		rep.Checks, err = runZooIncast(s)
	case ZooPhantom:
		rep.Checks, err = runZooPhantom(s)
	case ZooSharedBuffer:
		rep.Checks, err = runZooSharedBuffer(s)
	default:
		err = fmt.Errorf("conform %s: unknown zoo kind %d", s.Name, s.Kind)
	}
	if err != nil {
		return rep, fmt.Errorf("conform %s: %w", s.Name, err)
	}
	return rep, nil
}

// runZooIncast compares DCTCP+ against DT-DCTCP and the DCTCP baseline on
// the paper's testbed incast (Fig. 14 shape): the slow-timer sender must
// not collapse harder than plain DCTCP, and must stay on the same
// completion/goodput scale as the marking-side fix.
func runZooIncast(s ZooScenario) ([]Check, error) {
	run := func(p core.Protocol) (*core.QueryResult, error) {
		cfg := core.DefaultTestbed(p, s.Workers)
		cfg.Seed = s.Seed
		return core.RunIncast(cfg, s.Rounds)
	}
	plus, err := run(core.DCTCPPlus(20, zooG))
	if err != nil {
		return nil, fmt.Errorf("dctcp+: %w", err)
	}
	dt, err := run(core.DTDCTCP(16, 26, zooG))
	if err != nil {
		return nil, fmt.Errorf("dt-dctcp: %w", err)
	}
	base, err := run(core.DCTCP(20, zooG))
	if err != nil {
		return nil, fmt.Errorf("dctcp baseline: %w", err)
	}

	var checks []Check
	cc := Check{
		Name: "completion-mean/plus-vs-dt",
		Got:  plus.MeanCompletion.Seconds(),
		Ref:  dt.MeanCompletion.Seconds(),
	}
	if dt.MeanCompletion <= 0 {
		cc.Skipped = "rival run recorded no completions"
	} else {
		ratio := plus.MeanCompletion.Seconds() / dt.MeanCompletion.Seconds()
		cc.Detail = fmt.Sprintf("ratio %.2f in [%.2f, %.2f]", ratio, s.Tol.CompletionRatioLo, s.Tol.CompletionRatioHi)
		cc.Pass = ratio >= s.Tol.CompletionRatioLo && ratio <= s.Tol.CompletionRatioHi
	}
	checks = append(checks, cc)

	gc := Check{
		Name: "goodput-mean/plus-vs-dt",
		Got:  plus.MeanGoodputBps,
		Ref:  dt.MeanGoodputBps,
	}
	if dt.MeanGoodputBps <= 0 {
		gc.Skipped = "rival run recorded no goodput"
	} else {
		ratio := plus.MeanGoodputBps / dt.MeanGoodputBps
		gc.Detail = fmt.Sprintf("ratio %.2f in [%.2f, %.2f]", ratio, s.Tol.GoodputRatioLo, s.Tol.GoodputRatioHi)
		gc.Pass = ratio >= s.Tol.GoodputRatioLo && ratio <= s.Tol.GoodputRatioHi
	}
	checks = append(checks, gc)

	// The slow timer augments DCTCP; in every regime its completions
	// must track the baseline it grew out of.
	pb := Check{
		Name: "completion-mean/plus-vs-dctcp",
		Got:  plus.MeanCompletion.Seconds(),
		Ref:  base.MeanCompletion.Seconds(),
	}
	if base.MeanCompletion <= 0 {
		pb.Skipped = "baseline run recorded no completions"
	} else {
		ratio := plus.MeanCompletion.Seconds() / base.MeanCompletion.Seconds()
		pb.Detail = fmt.Sprintf("ratio %.2f in [%.2f, %.2f]", ratio, s.Tol.PlusBaseRatioLo, s.Tol.PlusBaseRatioHi)
		pb.Pass = ratio >= s.Tol.PlusBaseRatioLo && ratio <= s.Tol.PlusBaseRatioHi
	}
	checks = append(checks, pb)

	// Below the cliff the pacer must not manufacture timeouts the
	// baseline never saw; once the baseline itself collapses the
	// timeout-free claim has no referent and is skipped.
	tc := Check{
		Name: "timeouts/plus-below-cliff",
		Got:  float64(plus.Timeouts),
		Ref:  float64(base.Timeouts),
	}
	if base.Timeouts > 0 {
		tc.Skipped = fmt.Sprintf("baseline fired %d RTOs: the fan-in is past the cliff", base.Timeouts)
	} else {
		tc.Detail = fmt.Sprintf("%d RTOs (the pacer must not introduce timeouts below the cliff)", plus.Timeouts)
		tc.Pass = plus.Timeouts == 0
	}
	checks = append(checks, tc)

	// In the collapse regime, the marking-side fix must measurably ease
	// the collapse the baseline suffers.
	rc := Check{
		Name: "completion-mean/dt-vs-dctcp",
		Got:  dt.MeanCompletion.Seconds(),
		Ref:  base.MeanCompletion.Seconds(),
	}
	switch {
	case !s.Collapse:
		rc.Skipped = "below the cliff there is no collapse to relieve"
	case base.MeanCompletion <= 0:
		rc.Skipped = "baseline run recorded no completions"
	default:
		ratio := dt.MeanCompletion.Seconds() / base.MeanCompletion.Seconds()
		rc.Detail = fmt.Sprintf("ratio %.2f ≤ %.2f (DT-DCTCP must ease the collapse)", ratio, s.Tol.ReliefRatioMax)
		rc.Pass = ratio <= s.Tol.ReliefRatioMax
	}
	checks = append(checks, rc)

	// The declared regime must actually hold — this is the family's
	// anti-vacuity: a collapse scenario that never drops proves nothing,
	// and a pre-collapse scenario that drops is mislabeled.
	dc := Check{
		Name: "drops/dctcp-baseline",
		Got:  float64(base.Drops),
	}
	if s.Collapse {
		dc.Detail = fmt.Sprintf("%d drops > 0 (the incast must actually overflow the bottleneck)", base.Drops)
		dc.Pass = base.Drops > 0
	} else {
		dc.Detail = fmt.Sprintf("%d drops = 0 (below the cliff ECN absorbs the burst without loss)", base.Drops)
		dc.Pass = base.Drops == 0
	}
	checks = append(checks, dc)
	return checks, nil
}

// zooDumbbell maps a dumbbell-family scenario onto the simulator.
func (s ZooScenario) zooDumbbell(p core.Protocol) core.DumbbellConfig {
	return core.DumbbellConfig{
		Protocol:         p,
		Flows:            s.Flows,
		Rate:             s.Rate,
		RTT:              s.RTT,
		BufferPkts:       s.BufferPkts,
		Duration:         s.Duration,
		Warmup:           s.Warmup,
		QueueSampleEvery: s.RTT / 5,
		Seed:             s.Seed,
	}
}

// runZooPhantom checks HULL's analytic virtual-queue prediction: a
// phantom queue draining at γ·C pins utilization at γ, and with γ < 1 it
// marks early enough that the real queue's mean stays under the threshold
// the virtual queue trips at.
func runZooPhantom(s ZooScenario) ([]Check, error) {
	res, err := core.RunDumbbell(s.zooDumbbell(core.HULL(s.KPkts, s.Gamma, s.Rate, zooG)))
	if err != nil {
		return nil, fmt.Errorf("hull: %w", err)
	}
	ref, err := core.RunDumbbell(s.zooDumbbell(core.DCTCP(s.KPkts, zooG)))
	if err != nil {
		return nil, fmt.Errorf("dctcp reference: %w", err)
	}

	var checks []Check
	// The virtual queue saturates exactly when the arrival rate crosses
	// γ·C, so steady-state utilization must sit at γ (full rate at γ=1).
	uc := Check{
		Name: "utilization/sim-vs-virtual-queue-prediction",
		Got:  res.Utilization,
		Ref:  s.Gamma,
	}
	diff := res.Utilization - s.Gamma
	if diff < 0 {
		diff = -diff
	}
	uc.Detail = fmt.Sprintf("|util − γ| = %.3f ≤ %.3f", diff, s.Tol.UtilizationAbs)
	uc.Pass = diff <= s.Tol.UtilizationAbs
	checks = append(checks, uc)

	// Real-queue headroom: marking against the slower virtual drain
	// keeps the real buffer under the threshold.
	hc := Check{
		Name: "queue-mean/real-vs-threshold",
		Got:  res.QueueMeanPkts,
		Ref:  float64(s.KPkts),
	}
	if s.Gamma >= 1 {
		hc.Skipped = "γ = 1: the phantom queue tracks the real queue, no headroom claim to test"
	} else {
		bound := s.Tol.RealQueueFrac * float64(s.KPkts)
		hc.Detail = fmt.Sprintf("real mean %.1f pkts ≤ %.2f·K = %.1f", res.QueueMeanPkts, s.Tol.RealQueueFrac, bound)
		hc.Pass = res.QueueMeanPkts <= bound
	}
	checks = append(checks, hc)

	// Against the DCTCP reference at the same K: a γ<1 phantom must hold
	// a shorter real queue; at γ=1 the two markers see near-identical
	// occupancies and the means must sit on the same scale.
	qc := Check{
		Name: "queue-mean/hull-vs-dctcp",
		Got:  res.QueueMeanPkts,
		Ref:  ref.QueueMeanPkts,
	}
	switch {
	case ref.QueueMeanPkts < 1:
		qc.Skipped = fmt.Sprintf("reference queue mean %.2f pkts too small for a ratio", ref.QueueMeanPkts)
	case s.Gamma < 1:
		qc.Detail = fmt.Sprintf("phantom mean %.1f < reference %.1f (early marking shortens the real queue)",
			res.QueueMeanPkts, ref.QueueMeanPkts)
		qc.Pass = res.QueueMeanPkts < ref.QueueMeanPkts
	default:
		ratio := res.QueueMeanPkts / ref.QueueMeanPkts
		qc.Detail = fmt.Sprintf("ratio %.2f in [%.2f, %.2f]", ratio, s.Tol.QueueMeanRatioLo, s.Tol.QueueMeanRatioHi)
		qc.Pass = ratio >= s.Tol.QueueMeanRatioLo && ratio <= s.Tol.QueueMeanRatioHi
	}
	checks = append(checks, qc)

	checks = append(checks, Check{
		Name:   "stress/phantom-marks",
		Got:    float64(res.Marks),
		Detail: "the phantom queue must actually mark (anti-vacuity)",
		Pass:   res.Marks > 0,
	})
	return checks, nil
}

// runZooSharedBuffer checks the shared-buffer switch against the
// private-buffer reference. In the single-port limit the pooled run must
// be indistinguishable — same events, same marks, same drops, same queue
// trace hash. Under a whole-switch pool the dynamic allowance caps the
// bottleneck at the fixed point αB/(1+α) while utilization holds.
func runZooSharedBuffer(s ZooScenario) ([]Check, error) {
	p := core.DCTCP(s.KPkts, zooG)
	pooled := s.zooDumbbell(p)
	pooled.SharedBuffer = core.SharedBufferConfig{Alpha: s.Alpha, BottleneckOnly: s.SinglePortLimit}
	pres, err := core.RunDumbbell(pooled)
	if err != nil {
		return nil, fmt.Errorf("pooled: %w", err)
	}
	rres, err := core.RunDumbbell(s.zooDumbbell(p))
	if err != nil {
		return nil, fmt.Errorf("private reference: %w", err)
	}

	var checks []Check
	if s.SinglePortLimit {
		// Verdict-exact equivalence: every counter and the queue trace
		// must match bit for bit.
		ec := Check{
			Name: "events/pooled-vs-private",
			Got:  float64(pres.Events),
			Ref:  float64(rres.Events),
			Pass: pres.Events == rres.Events,
		}
		ec.Detail = fmt.Sprintf("%d vs %d (exact)", pres.Events, rres.Events)
		checks = append(checks, ec)
		mc := Check{
			Name: "marks-drops/pooled-vs-private",
			Got:  float64(pres.Marks),
			Ref:  float64(rres.Marks),
			Pass: pres.Marks == rres.Marks && pres.Drops == rres.Drops && pres.Timeouts == rres.Timeouts,
		}
		mc.Detail = fmt.Sprintf("marks %d/%d drops %d/%d timeouts %d/%d (exact)",
			pres.Marks, rres.Marks, pres.Drops, rres.Drops, pres.Timeouts, rres.Timeouts)
		checks = append(checks, mc)
		qc := Check{
			Name: "queue-trace/pooled-vs-private",
			Got:  pres.QueueMeanPkts,
			Ref:  rres.QueueMeanPkts,
		}
		switch {
		case pres.QueueSeries == nil || rres.QueueSeries == nil:
			qc.Skipped = "a run produced no queue series"
		default:
			qc.Pass = pres.QueueSeries.Hash64() == rres.QueueSeries.Hash64()
			qc.Detail = fmt.Sprintf("series hash %016x vs %016x (exact)",
				pres.QueueSeries.Hash64(), rres.QueueSeries.Hash64())
		}
		checks = append(checks, qc)
	} else {
		// Dynamic-threshold cap: with only the bottleneck congested the
		// allowance fixed point is q* = αB/(1+α).
		cap := s.Alpha * float64(s.BufferPkts) / (1 + s.Alpha)
		qm := Check{
			Name:   "queue-max/sim-vs-dt-fixed-point",
			Got:    pres.QueueMaxPkts,
			Ref:    cap,
			Detail: fmt.Sprintf("max %.1f pkts ≤ αB/(1+α) + %.0f = %.1f", pres.QueueMaxPkts, s.Tol.QueueCapSlackPkts, cap+s.Tol.QueueCapSlackPkts),
			Pass:   pres.QueueMaxPkts <= cap+s.Tol.QueueCapSlackPkts,
		}
		checks = append(checks, qm)
		uc := Check{
			Name:   "utilization/pooled",
			Got:    pres.Utilization,
			Ref:    1,
			Detail: fmt.Sprintf("utilization %.3f ≥ 1 − %.2f (the cap must not starve the link)", pres.Utilization, s.Tol.UtilizationAbs),
			Pass:   pres.Utilization >= 1-s.Tol.UtilizationAbs,
		}
		checks = append(checks, uc)
		qc := Check{
			Name: "queue-mean/pooled-vs-private",
			Got:  pres.QueueMeanPkts,
			Ref:  rres.QueueMeanPkts,
		}
		if rres.QueueMeanPkts < 1 {
			qc.Skipped = fmt.Sprintf("reference queue mean %.2f pkts too small for a ratio", rres.QueueMeanPkts)
		} else {
			ratio := pres.QueueMeanPkts / rres.QueueMeanPkts
			qc.Detail = fmt.Sprintf("ratio %.2f in [%.2f, %.2f]", ratio, s.Tol.QueueMeanRatioLo, s.Tol.QueueMeanRatioHi)
			qc.Pass = ratio >= s.Tol.QueueMeanRatioLo && ratio <= s.Tol.QueueMeanRatioHi
		}
		checks = append(checks, qc)
	}
	checks = append(checks, Check{
		Name:   "stress/pooled-marks",
		Got:    float64(pres.Marks),
		Detail: "the pooled bottleneck must actually mark (anti-vacuity)",
		Pass:   pres.Marks > 0,
	})
	return checks, nil
}

// zooDumbbellScenario is the dumbbell families' base point: the paper's
// Section VI-A bottleneck, shortened to keep the grid affordable.
func zooDumbbellScenario(name string, kind ZooKind, flows int) ZooScenario {
	return ZooScenario{
		Name:       name,
		Kind:       kind,
		Flows:      flows,
		Rate:       10 * netsim.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		KPkts:      40,
		Warmup:     10 * time.Millisecond,
		Duration:   30 * time.Millisecond,
		Seed:       1,
		Tol:        DefaultZooTolerances(),
	}
}

// ZooGrid returns the zoo conformance grid: DCTCP+ against DT-DCTCP on
// two incast fan-ins, the phantom queue across γ, and the shared-buffer
// switch in its exact single-port limit and two sharing regimes.
func ZooGrid() []ZooScenario {
	var out []ZooScenario

	// Incast family: below and at the paper's collapse region.
	for _, w := range []int{16, 32} {
		s := ZooScenario{
			Name:     fmt.Sprintf("zoo-plus-vs-dt-incast-w%d", w),
			Kind:     ZooIncast,
			Workers:  w,
			Rounds:   3,
			Collapse: w >= 32,
			Seed:     1,
			Tol:      DefaultZooTolerances(),
		}
		out = append(out, s)
	}

	// Phantom family: HULL's γ sweep plus the γ = 1 fluid edge.
	for _, gamma := range []float64{0.80, 0.95, 1.0} {
		s := zooDumbbellScenario(fmt.Sprintf("zoo-hull-g%02.0f-n20", gamma*100), ZooPhantom, 20)
		s.Gamma = gamma
		out = append(out, s)
	}

	// Shared-buffer family: the exact uncontended limit, then sharing at
	// a conservative and a liberal α.
	limit := zooDumbbellScenario("zoo-sharedbuf-single-port-limit", ZooSharedBuffer, 40)
	limit.Alpha = 1e12
	limit.SinglePortLimit = true
	out = append(out, limit)
	for _, alpha := range []float64{1, 8} {
		s := zooDumbbellScenario(fmt.Sprintf("zoo-sharedbuf-a%.0f-n40", alpha), ZooSharedBuffer, 40)
		s.Alpha = alpha
		out = append(out, s)
	}
	return out
}

// QuickZooGrid returns a three-point subset of ZooGrid for smoke runs,
// one per family, with the same declared tolerances.
func QuickZooGrid() []ZooScenario {
	want := map[string]bool{
		"zoo-plus-vs-dt-incast-w16":       true,
		"zoo-hull-g95-n20":                true,
		"zoo-sharedbuf-single-port-limit": true,
	}
	var out []ZooScenario
	for _, s := range ZooGrid() {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// RunZooGrid executes the scenarios concurrently on up to workers
// goroutines (values < 1 mean GOMAXPROCS). Every scenario runs in private
// engines seeded only by its own configuration, so reports are
// byte-identical for any worker count and are returned in input order.
func RunZooGrid(ctx context.Context, scenarios []ZooScenario, workers int) ([]ZooReport, error) {
	return runner.Map(ctx, len(scenarios), workers,
		func(_ context.Context, i int) (ZooReport, error) {
			return RunZooScenario(scenarios[i])
		})
}

// ZooGolden is one named dumbbell configuration in the zoo golden-digest
// suite: the DCTCP+ pacing path, the phantom marker, and the
// shared-buffer admission path each pin their determinism byte-for-byte.
type ZooGolden struct {
	Name string
	Cfg  core.DumbbellConfig
}

// ZooGoldenScenarios returns the zoo golden-run suite, regenerable with
//
//	go test ./internal/conform -run Golden -update
func ZooGoldenScenarios() []ZooGolden {
	base := func(p core.Protocol, flows int) core.DumbbellConfig {
		return core.DumbbellConfig{
			Protocol:         p,
			Flows:            flows,
			Rate:             10 * netsim.Gbps,
			RTT:              100 * time.Microsecond,
			BufferPkts:       600,
			Duration:         20 * time.Millisecond,
			Warmup:           5 * time.Millisecond,
			QueueSampleEvery: 20 * time.Microsecond,
			AlphaSampleEvery: 100 * time.Microsecond,
			Seed:             1,
		}
	}
	plus := base(core.DCTCPPlus(40, zooG), 16)
	hull := base(core.HULL(40, 0.95, 10*netsim.Gbps, zooG), 20)
	pool := base(core.DCTCP(40, zooG), 40)
	pool.SharedBuffer = core.SharedBufferConfig{Alpha: 2}
	return []ZooGolden{
		{Name: "golden-zoo-plus-n16", Cfg: plus},
		{Name: "golden-zoo-hull-g95-n20", Cfg: hull},
		{Name: "golden-zoo-sharedbuf-a2-n40", Cfg: pool},
	}
}
