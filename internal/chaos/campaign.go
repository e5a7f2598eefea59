package chaos

import (
	"fmt"
	"math"
	"time"

	"insure/internal/core"
	"insure/internal/faults"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

// tornTailBytes is how much of the journal tail a KillTorn event chops
// off — enough to corrupt the final record the way a mid-write power cut
// does, small enough to never reach past one record into committed state.
const tornTailBytes = 40

// Report is the outcome of one campaign.
type Report struct {
	Seed   int64
	Events int

	// Event counts by kind, as planned.
	Kills, TornKills, Partitions, SensorFaults, HardwareFaults int

	// Recoveries the control state has accumulated (persisted across
	// incarnations, so this equals the kill count when recovery works)
	// and relay pairs reconciliation re-drove.
	Recoveries      int
	Reconciliations int

	// Chaos-day vs reference-day outcomes.
	Brownouts, RefBrownouts       int
	EndSoC, RefEndSoC             float64
	UptimeFrac, RefUptimeFrac     float64
	TrajectoryHash, RefTrajectory uint64

	// Converged reports whether the chaos day ended within the
	// convergence band of the reference day with no extra brownouts.
	Converged bool

	// Invariant violations observed on the chaos day.
	verdict
}

// String is the one-line summary a failing test prints with the seed.
func (r *Report) String() string {
	return fmt.Sprintf("seed %d: %d events (%d kills, %d torn, %d partitions, %d sensor, %d hardware), %d recoveries, %d reconciled, %d violations, brownouts %d/%d ref, SoC %.4f/%.4f ref, converged %v",
		r.Seed, r.Events, r.Kills, r.TornKills, r.Partitions, r.SensorFaults, r.HardwareFaults,
		r.Recoveries, r.Reconciliations, r.ViolationCount, r.Brownouts, r.RefBrownouts,
		r.EndSoC, r.RefEndSoC, r.Converged)
}

// newWorld assembles one prototype plant and its manager, arms the
// campaign's plant-fault plan on it, and returns the log of times
// brownouts began; probe, when set, runs after every tick's injection.
func newWorld(cfg Config, plan faults.Plan, probe func(*sim.System, time.Duration)) (*sim.System, *core.Manager, *[]time.Duration, error) {
	sys, err := sim.New(plantConfig(trace.FullSystemHigh(), cfg.Batteries, cfg.Servers, nil), sim.NewSeismicSink())
	if err != nil {
		return nil, nil, nil, err
	}
	var brownTicks []time.Duration
	seen := 0
	armFaults(sys, plan, func(tod time.Duration) {
		if b := sys.Brownouts(); b > seen {
			seen = b
			brownTicks = append(brownTicks, tod)
		}
		if probe != nil {
			probe(sys, tod)
		}
	})
	return sys, core.New(core.DefaultConfig(), cfg.Batteries), &brownTicks, nil
}

// Run executes the campaign described by cfg and reports the outcome.
// The only error returns are harness failures (bad config, journal I/O,
// fieldbus setup); invariant breaks are reported, not errored, so a test
// can print the full report with its seed.
func Run(cfg Config) (*Report, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("chaos: StateDir is required")
	}
	plan, err := Plan(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Seed: cfg.Seed, Events: len(plan)}
	for _, e := range plan {
		switch e.Kind {
		case KillClean:
			rep.Kills++
		case KillTorn:
			rep.TornKills++
		case Partition:
			rep.Partitions++
		case SensorFault:
			rep.SensorFaults++
		case HardwareFault:
			rep.HardwareFaults++
		}
	}
	faultPlan := faultPlanOf(plan)

	// Reference day: the uninterrupted twin — same plant, same hardware
	// fault plan, no kills, no partitions.
	refSys, refMgr, refBrown, err := newWorld(cfg, faultPlan, nil)
	if err != nil {
		return nil, err
	}
	refRes := refSys.Run(refMgr)

	// Chaos day.
	sys, mgr, brownTicks, err := newWorld(cfg, faultPlan, func(sys *sim.System, tod time.Duration) {
		checkInvariants(rep, sys, tod)
	})
	if err != nil {
		return nil, err
	}
	// Append-only journaling (snapshotEvery 0): every record stays a delta
	// on the tail, so a KillTorn always has a freshly-written record to
	// tear, never a just-rotated empty file.
	ctl := &controller{cfg: core.DefaultConfig(), batteries: cfg.Batteries, dir: cfg.StateDir,
		reg: telemetry.NewRegistry(), mgr: mgr}
	mgr.AttachTelemetry(ctl.reg)
	if ctl.store, err = journal.Open(cfg.StateDir); err != nil {
		return nil, err
	}
	defer func() { ctl.store.Close() }()
	jm := ctl.journaled()

	var proxy *faults.FlakyProxy
	if cfg.Remote {
		addr, stopServer, err := sys.ServePanel()
		if err != nil {
			return nil, err
		}
		defer stopServer()
		proxy, err = faults.NewFlakyProxy(addr)
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		cli, stopClient, err := sys.ConnectRemote(proxy.Addr())
		if err != nil {
			return nil, err
		}
		defer stopClient()
		// Partitions fail fast (connection resets, not silent drops), so
		// an aggressive timeout/retry policy keeps the campaign at full
		// speed without changing any plant value: the fieldbus fallback
		// path reads and writes the same registers the client would.
		cli.Timeout = 250 * time.Millisecond
		cli.MaxRetries = 1
		cli.RetryBackoff = time.Millisecond
	}

	period := mgr.Period()
	var killTimes []time.Duration
	healAt := time.Duration(-1)
	next := 0
	start, end := sys.Span()
	for tod := start; tod < end; tod += time.Second {
		if healAt >= 0 && tod >= healAt {
			proxy.SetPartition(false)
			healAt = -1
		}
		for next < len(plan) && plan[next].At <= tod {
			e := plan[next]
			next++
			switch e.Kind {
			case Partition:
				if proxy != nil {
					proxy.SetPartition(true)
					if h := e.At + e.Dur; h > healAt {
						healAt = h
					}
				}
			case KillClean, KillTorn:
				if jm, err = ctl.restart(sys, tod, e.Kind == KillTorn); err != nil {
					return nil, err
				}
				killTimes = append(killTimes, tod)
			}
		}
		sys.Tick(tod, jm)
	}
	if err := jm.Err(); err != nil {
		return nil, fmt.Errorf("chaos: journal commit: %w", err)
	}
	res := sys.Finish(jm)

	rep.Recoveries = ctl.mgr.Recoveries()
	rep.Reconciliations = ctl.mgr.Reconciliations()
	rep.Brownouts = res.Brownouts
	rep.RefBrownouts = refRes.Brownouts
	rep.EndSoC = sys.Bank.MeanSoC()
	rep.RefEndSoC = refSys.Bank.MeanSoC()
	rep.UptimeFrac = res.UptimeFrac
	rep.RefUptimeFrac = refRes.UptimeFrac
	rep.TrajectoryHash = hashFrames(sys.Recorder().Frames())
	rep.RefTrajectory = hashFrames(refSys.Recorder().Frames())

	// No recovery-induced brownouts: a brownout inside a recovery window
	// (two control periods after a kill) must have a counterpart within
	// two periods in the reference day — the plant was going down anyway;
	// recovery did not push it over.
	for _, t := range *brownTicks {
		if within(t, killTimes, 0, 2*period) && !within(t, *refBrown, -2*period, 2*period) {
			rep.violate("recovery-brownout", "brownout at %v inside a recovery window with no reference counterpart", t)
		}
	}
	rep.Converged = rep.Brownouts <= rep.RefBrownouts &&
		math.Abs(rep.EndSoC-rep.RefEndSoC) <= 0.03 &&
		math.Abs(rep.UptimeFrac-rep.RefUptimeFrac) <= 0.02
	return rep, nil
}

// checkInvariants asserts the per-tick safety properties of the chaos day.
func checkInvariants(rep *Report, sys *sim.System, tod time.Duration) {
	f := sys.Fabric
	for i := 0; i < f.Size(); i++ {
		p := f.Pair(i)
		if p.Charge.Closed() && p.Discharge.Closed() {
			rep.violate("relay-exclusive", "unit %d: charge and discharge contacts both closed at %v", i, tod)
		}
	}
	if f.P2.Closed() && (f.P1.Closed() || f.P3.Closed()) {
		rep.violate("topology-legal", "series switch P2 closed alongside a parallel switch at %v", tod)
	}
	const eps = 1e-9
	for i := 0; i < sys.Bank.Size(); i++ {
		if soc := sys.Bank.Unit(i).SoC(); soc < -eps || soc > 1+eps {
			rep.violate("soc-bounds", "unit %d: SoC %v out of bounds at %v", i, soc, tod)
		}
	}
}

// within reports whether t falls in [s+lo, s+hi] for any s in set.
func within(t time.Duration, set []time.Duration, lo, hi time.Duration) bool {
	for _, s := range set {
		if t >= s+lo && t <= s+hi {
			return true
		}
	}
	return false
}
