package chaos

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"insure/internal/battery"
	"insure/internal/core"
	"insure/internal/faults"
	"insure/internal/fleet"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
	"insure/internal/wan"
	"insure/internal/workload"
)

// The federated storm campaign is the federation layer's proving ground:
// N sites under one coordinator, with the storm campaign's weather (and its
// battery surges) parked over exactly one of them for several days while
// the others stay sunny. With migration armed the darkened site must hand
// its deferred batch work to the surplus sites, see it completed, and lose
// zero VMs — the coordinator's migrate-before-shed contract. With migration
// off the same storm shows what a solo plant loses, and every plant must be
// byte-identical to its solo run.
//
// Optionally every cross-site byte rides a lossy, partition-prone backhaul:
// chunks drop and corrupt at storm rates, and scheduled partitions cut
// first a donor and then the evacuating site itself mid-transfer.
// Optionally the storm site is lost outright. Either way the federation's
// exactly-once contract holds: no migrated job is lost, none lands twice,
// no partition is mistaken for a death, and the coordinator's live
// accounting reconciles exactly with a fresh replay of its migration log.

// WANStormConfig shapes a federated storm campaign.
type WANStormConfig struct {
	// Seed drives the weather, the battery-fault schedule, and every chunk
	// fate; the same seed reproduces the campaign bit-for-bit.
	Seed int64
	// Days is the storm length (the acceptance bar is >= 3).
	Days int
	// Sites is the fleet size; StormSite is the index under the storm.
	Sites     int
	StormSite int
	// Batteries and Servers size each plant.
	Batteries int
	Servers   int
	// Migration arms the full federation stack: survivability ladders on
	// every site plus surplus-driven migration and checkpoint shipping.
	// Off, the fleet is N pre-federation plants riding the same weather.
	Migration bool
	// JobGB is the per-arrival batch dataset size at every site.
	JobGB float64
	// DropRate/CorruptRate are the per-chunk-attempt loss probabilities
	// (the acceptance bar is a combined rate >= 0.30).
	DropRate    float64
	CorruptRate float64
	// Partitions are the scheduled uplink outages. A loss rate above zero
	// or a scheduled partition routes every cross-site byte through the
	// degraded backhaul model; with neither, the coordinator keeps its
	// ideal single-shot links. Nil on a lossy WAN gets the default pair
	// of six-hour cuts: a donor on day 0, the storm site itself on day 1 —
	// mid-evacuation, with transfers in flight. An empty slice schedules
	// none.
	Partitions []wan.Outage
	// FailAt, when nonzero, hard-kills the storm site that long after the
	// campaign starts (day d at 15h is d*24h + 15h) — storm damage turning
	// into total site loss.
	FailAt time.Duration
	// LogDir holds the migration log; empty uses a private temporary
	// directory (the log is required — the audit replays it).
	LogDir string
}

// DefaultWANStormConfig is the acceptance campaign: three sites, a
// three-day storm over site 0, 30% drops + 5% corruption, and the two
// default six-hour partitions. Zero both rates for ideal links.
func DefaultWANStormConfig(seed int64) WANStormConfig {
	return WANStormConfig{
		Seed:      seed,
		Days:      3,
		Sites:     3,
		StormSite: 0,
		Batteries: 6,
		Servers:   4,
		JobGB:     40,
		DropRate:  0.30, CorruptRate: 0.05,
	}
}

// defaultPartitions is the scheduled outage pair for an n-site fleet with
// the storm over stormSite: six hours without a donor, then six hours with
// the evacuating site itself cut off mid-transfer.
func defaultPartitions(stormSite, sites int) []wan.Outage {
	donor := (stormSite + 1) % sites
	return []wan.Outage{
		{Site: donor, Day: 0, From: 9 * time.Hour, To: 15 * time.Hour},
		{Site: stormSite, Day: 1, From: 10 * time.Hour, To: 16 * time.Hour},
	}
}

// WANStormReport is the outcome of one federated storm campaign.
type WANStormReport struct {
	Seed      int64
	Days      int
	Sites     int
	Migration bool

	// Plant outcomes across all sites and days.
	Brownouts int
	VMsLost   int
	VMsSaved  int

	// The coordinator's federation accounting. Its guard counters,
	// JobsDoubleRun and SplitBrain, are zero by construction.
	fleet.Totals
	Heals        int
	JobsLanded   int // job IDs that completed a transfer, exactly once
	JobsInFlight int // job IDs still riding a transfer at campaign end

	// StormBacklogGB is the storm site's deferred backlog left at campaign
	// end; CompletedAwayGB is the migrated volume the other sites finished
	// on its behalf.
	StormBacklogGB  float64
	CompletedAwayGB float64

	// TrajectoryHash folds every site's recorded frames across all days.
	TrajectoryHash uint64

	verdict
}

// String is the one-line summary a failing test prints with the seed.
func (r *WANStormReport) String() string {
	return fmt.Sprintf("wan-storm seed %d: %d sites, %d days (migration %v): %d jobs moved / %d landed / %d in flight, %.1f GB migrated, %.1f GB retransmitted, %d reroutes, %d drops + %d corrupt, %d heals, %d sites lost, double-run %d, split-brain %d, %d violations",
		r.Seed, r.Sites, r.Days, r.Migration,
		r.JobsMoved, r.JobsLanded, r.JobsInFlight, r.MigratedGB, r.RetransmitGB,
		r.Reroutes, r.ChunkDrops, r.ChunkCorrupts, r.Heals, r.SitesLost,
		r.JobsDoubleRun, r.SplitBrain, r.ViolationCount)
}

// federation is the campaign's persistent per-site fixture: banks, sinks,
// and managers that live across days. The federated run, the log audit,
// and the solo byte-identity rerun each build one, so all start identical.
type federation struct {
	cfg   WANStormConfig
	banks []*battery.Bank
	sinks []*sim.BatchSink
	mgrs  []*core.Manager
	sites []fleet.Site
}

// newFederation builds the fixture. The storm site starts mid-drought at
// the dispatch floor and takes a second arrival each afternoon; the others
// hold a working charge.
func newFederation(cfg WANStormConfig) (*federation, error) {
	f := &federation{cfg: cfg}
	for i := 0; i < cfg.Sites; i++ {
		soc, arrivals := 0.50, []time.Duration{7 * time.Hour}
		if i == cfg.StormSite {
			soc, arrivals = 0.30, []time.Duration{7 * time.Hour, 13 * time.Hour}
		}
		bank, err := battery.NewBank(battery.DefaultParams(), cfg.Batteries, soc)
		if err != nil {
			return nil, err
		}
		mcfg := core.DefaultConfig()
		if cfg.Migration {
			mcfg.Survival = core.DefaultSurvivalConfig()
		}
		sink := &sim.BatchSink{
			Queue:    workload.NewBatchQueue(workload.Seismic()),
			Arrivals: arrivals,
			JobGB:    cfg.JobGB,
		}
		mgr := core.New(mcfg, cfg.Batteries)
		f.banks = append(f.banks, bank)
		f.sinks = append(f.sinks, sink)
		f.mgrs = append(f.mgrs, mgr)
		f.sites = append(f.sites, fleet.Site{Sink: sink, Manager: mgr})
	}
	return f, nil
}

// dayConfig is site i's plant for one day: storm weather over the storm
// site, per-site sunny seed lanes elsewhere (no two sites share weather),
// banks carried across days.
func (f *federation) dayConfig(i, day int) sim.Config {
	if i == f.cfg.StormSite {
		return plantConfig(stormDayTrace(f.cfg.Seed, day), f.cfg.Batteries, f.cfg.Servers, f.banks[i])
	}
	tr := trace.Synthesize(solar.Sunny, f.cfg.Seed+1000*int64(i+1)+int64(day), time.Second)
	return plantConfig(tr, f.cfg.Batteries, f.cfg.Servers, f.banks[i])
}

// surge is the battery damage site i suffers on day: the storm's surge
// faults at the storm site, nothing elsewhere.
func (f *federation) surge(i, day int) faults.Plan {
	if i != f.cfg.StormSite {
		return nil
	}
	return stormDayFaults(day, f.cfg.Batteries)
}

// storageHooks mounts the bit-rot storm's storage plane under the
// federated runner: the migration log's filesystem, the checkpoint-image
// store, and a callback at every day boundary.
type storageHooks struct {
	logFS    journal.FS
	images   *fleet.ImageStore
	afterDay func(day int) error
}

// RunWANStorm executes the federated storm campaign described by cfg.
// Error returns are harness failures only; invariant breaks are reported
// in the WANStormReport so a test can print it with its seed.
func RunWANStorm(cfg WANStormConfig) (*WANStormReport, error) {
	return runFederatedStorm(cfg, storageHooks{})
}

func runFederatedStorm(cfg WANStormConfig, hooks storageHooks) (*WANStormReport, error) {
	if cfg.Days < 1 {
		return nil, fmt.Errorf("chaos: federated storm needs at least one day")
	}
	if cfg.Sites < 2 {
		return nil, fmt.Errorf("chaos: federated storm needs at least two sites")
	}
	if cfg.StormSite < 0 || cfg.StormSite >= cfg.Sites {
		return nil, fmt.Errorf("chaos: storm site %d outside the %d-site fleet", cfg.StormSite, cfg.Sites)
	}
	if cfg.FailAt < 0 || cfg.FailAt >= time.Duration(cfg.Days)*24*time.Hour {
		return nil, fmt.Errorf("chaos: site failure at %v outside the %d-day storm", cfg.FailAt, cfg.Days)
	}
	failDay := -1
	if cfg.FailAt > 0 {
		failDay = int(cfg.FailAt / (24 * time.Hour))
	}
	logDir := cfg.LogDir
	if logDir == "" {
		dir, err := os.MkdirTemp("", "insure-wanstorm-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		logDir = dir
	}
	logFS := hooks.logFS
	if logFS == nil {
		logFS = journal.Disk
	}
	var net *wan.Network
	partitions := cfg.Partitions
	if cfg.DropRate > 0 || cfg.CorruptRate > 0 || len(partitions) > 0 {
		if partitions == nil {
			partitions = defaultPartitions(cfg.StormSite, cfg.Sites)
		}
		var err error
		net, err = wan.New(wan.Config{
			Seed: cfg.Seed, Sites: cfg.Sites,
			DropRate: cfg.DropRate, CorruptRate: cfg.CorruptRate,
			Outages: partitions,
		})
		if err != nil {
			return nil, err
		}
	}
	fed, err := newFederation(cfg)
	if err != nil {
		return nil, err
	}

	rep := &WANStormReport{
		Seed: cfg.Seed, Days: cfg.Days, Sites: cfg.Sites, Migration: cfg.Migration,
	}
	traj := (*digest)(&rep.TrajectoryHash)
	var curFl *sim.Fleet
	c, err := fleet.New(fleet.Config{
		Migration: cfg.Migration,
		WAN:       net,
		LogDir:    logDir,
		LogFS:     logFS,
		Images:    hooks.images,
		Prepare: func(day int, fl *sim.Fleet) {
			curFl = fl
			for i := 0; i < cfg.Sites; i++ {
				// The federated emergency contract holds at every site
				// while migration (and with it the survivability ladder)
				// is armed.
				sys := fl.System(i)
				watch := &emergencyWatch{where: fmt.Sprintf("day %d site %d", day, i),
					mode: fed.mgrs[i].Mode(), noLoss: cfg.Migration}
				armFaults(sys, fed.surge(i, day), func(tod time.Duration) {
					watch.check(&rep.verdict, fed.mgrs[i].Mode(), sys, tod)
				})
			}
		},
	}, fed.sites)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if failDay >= 0 {
		if err := c.ScheduleSiteFailure(failDay, cfg.FailAt%(24*time.Hour), cfg.StormSite); err != nil {
			return nil, err
		}
	}

	failedSiteLost := 0
	for day := 0; day < cfg.Days; day++ {
		cfgs := make([]sim.Config, cfg.Sites)
		for i := range cfgs {
			cfgs[i] = fed.dayConfig(i, day)
		}
		res, err := c.RunDay(cfgs)
		if err != nil {
			return nil, err
		}
		for i, r := range res {
			rep.Brownouts += r.Brownouts
			rep.VMsLost += r.VMsLost
			rep.VMsSaved += r.VMsSaved
			if i == cfg.StormSite && day == failDay {
				// A hard-failed site crashes with its in-flight VMs by
				// definition — that is the disposability bargain, not a
				// survivability breach.
				failedSiteLost += r.VMsLost
			}
			traj.chain(hashFrames(curFl.System(i).Recorder().Frames()))
		}
		if hooks.afterDay != nil {
			if err := hooks.afterDay(day); err != nil {
				return nil, err
			}
		}
	}

	frep := c.Report()
	rep.Totals = frep.Totals
	rep.Heals = frep.Heals
	rep.StormBacklogGB = frep.Sites[cfg.StormSite].PendingGB
	for i, s := range frep.Sites {
		if i != cfg.StormSite {
			rep.CompletedAwayGB += s.MigratedCompletedGB
		}
	}

	// --- Invariants ------------------------------------------------------

	if rep.JobsDoubleRun != 0 {
		rep.violate("no-double-run", "%d job IDs landed twice", rep.JobsDoubleRun)
	}
	if rep.SplitBrain != 0 {
		rep.violate("no-split-brain", "%d jobs entered a transfer while in flight or landed", rep.SplitBrain)
	}
	// Only the scheduled failure may kill a site. No partition here
	// outlasts the 8-hour lease: any other declared death means the
	// detector confused a partition with a loss — split-brain's front door.
	scheduled := 0
	if failDay >= 0 {
		scheduled = 1
	}
	if rep.SitesLost != scheduled {
		rep.violate("no-unscheduled-death", "%d sites declared dead, %d failure scheduled", rep.SitesLost, scheduled)
	}
	// Every scheduled partition must end in a heal: the suspected site
	// heartbeats again and rejoins without accounting damage.
	if rep.Heals < len(partitions) {
		rep.violate("partitions-heal", "%d partitions scheduled but only %d heals observed", len(partitions), rep.Heals)
	}
	if err := auditLog(rep, logFS, logDir, scheduled > 0); err != nil {
		return nil, err
	}
	if cfg.Migration {
		if lost := rep.VMsLost - failedSiteLost; lost > 0 {
			rep.violate("no-vms-lost", "federated storm lost %d VMs with migration armed", lost)
		}
		if rep.MigratedGB <= 0 {
			rep.violate("evacuated", "storm site migrated nothing off-site")
		}
		// Only the WAN's chunked transfers journal per-job manifests.
		if net != nil && rep.JobsLanded == 0 {
			rep.violate("landed", "no migrated job ever landed across the lossy WAN")
		}
		if cfg.DropRate > 0 && rep.ChunkDrops == 0 {
			rep.violate("wan-lossy", "%.0f%% drop rate produced zero chunk drops", 100*cfg.DropRate)
		}
		if rep.ChunkDrops+rep.ChunkCorrupts > 0 && rep.RetransmitGB <= 0 {
			rep.violate("retransmitted", "chunk losses produced zero retransmitted bytes")
		}
		if failDay < 0 {
			if rep.StormBacklogGB > 0 {
				rep.violate("backlog-drained", "storm site finished the campaign holding %.1f GB deferred", rep.StormBacklogGB)
			}
			// The storm site's deferred work must actually complete —
			// locally or at the surplus sites — not just move around.
			// MigratedGB is not the yardstick (a bundle re-shipped under
			// deadline pressure counts twice); the site's arrival total is.
			// One in-progress tail job is allowed at cut-off.
			sink := fed.sinks[cfg.StormSite]
			arrivedGB := float64(cfg.Days*len(sink.Arrivals)) * cfg.JobGB
			if done := rep.CompletedAwayGB + sink.ProcessedGB(); done < arrivedGB-cfg.JobGB {
				rep.violate("work-completed", "only %.1f of %.1f arrived GB completed (%.1f away, %.1f locally)",
					done, arrivedGB, rep.CompletedAwayGB, sink.ProcessedGB())
			}
		}
	}

	// Reconcile after heal: a fresh coordinator recovered from the log
	// alone — over the same filesystem — must agree with the live one
	// exactly: the log is the single source of truth, and replaying it is
	// idempotent.
	if err := c.Close(); err != nil {
		return nil, err
	}
	auditFed, err := newFederation(cfg)
	if err != nil {
		return nil, err
	}
	audit, err := fleet.New(fleet.Config{
		Migration: cfg.Migration, WAN: net, LogDir: logDir, LogFS: logFS,
	}, auditFed.sites)
	if err != nil {
		return nil, err
	}
	defer audit.Close()
	if got := audit.Totals(); !reflect.DeepEqual(got, rep.Totals) {
		rep.violate("log-reconciles", "log replay does not reconcile with live totals:\n replay: %+v\n   live: %+v", got, rep.Totals)
	}

	// With migration off (and no site failing) the coordinator is a pure
	// observer: every plant must match its solo run bit for bit.
	if !cfg.Migration && failDay < 0 {
		solo, err := soloHash(cfg)
		if err != nil {
			return nil, err
		}
		if solo != rep.TrajectoryHash {
			rep.violate("solo-identical", "observer fleet diverged from solo runs: %#x != %#x", rep.TrajectoryHash, solo)
		}
	}
	return rep, nil
}

// auditLog checks exactly-once from the migration log alone, read through
// fsys like an auditor who never saw the live coordinator. At every moment a job is in
// exactly one place — riding one transfer or resident at one site.
// Re-migration (land, then leave on a later transfer) is legitimate; being
// in two open transfers, or landing while already resident, is a breach.
// A transfer aborts only when its source died, taking its jobs with it,
// which is legitimate only under a scheduled failure. Every other job that
// ever entered a transfer must end resident somewhere or still in flight —
// never vanished.
func auditLog(rep *WANStormReport, fsys journal.FS, logDir string, deathScheduled bool) error {
	records, err := fleet.ReplayLogFS(fsys, logDir)
	if err != nil {
		return err
	}
	manifests := map[uint64][]fleet.JobRef{}
	inOpenXfer := map[uint64]bool{}
	resident := map[uint64]bool{}
	entered := map[uint64]bool{}
	for _, r := range records {
		switch r.Kind {
		case fleet.RecXferStart:
			manifests[r.Xfer] = r.Manifest
			for _, ref := range r.Manifest {
				entered[ref.ID] = true
				if inOpenXfer[ref.ID] {
					rep.violate("one-place", "job %#x entered transfer %d while already in flight", ref.ID, r.Xfer)
				}
				inOpenXfer[ref.ID] = true
				delete(resident, ref.ID) // leaving its site
			}
		case fleet.RecXferDone:
			for _, ref := range manifests[r.Xfer] {
				if resident[ref.ID] {
					rep.violate("one-place", "job %#x landed while already resident", ref.ID)
				}
				delete(inOpenXfer, ref.ID)
				resident[ref.ID] = true
			}
		case fleet.RecXferAbort:
			if !deathScheduled {
				rep.violate("no-abort", "transfer %d aborted with no site death scheduled", r.Xfer)
			}
			for _, ref := range manifests[r.Xfer] {
				delete(inOpenXfer, ref.ID)
				delete(entered, ref.ID) // died with its source site
			}
		}
	}
	for id := range entered {
		switch {
		case resident[id]:
			rep.JobsLanded++
		case inOpenXfer[id]:
			rep.JobsInFlight++
		default:
			rep.violate("none-vanished", "job %#x entered a transfer and vanished from the log", id)
		}
	}
	return nil
}

// soloHash runs every site of the campaign fixture alone — no coordinator,
// no WAN — and folds the same trajectory hash the federated run computes,
// in the same day-major order (sites share nothing, so interleaving their
// days is safe).
func soloHash(cfg WANStormConfig) (uint64, error) {
	fed, err := newFederation(cfg)
	if err != nil {
		return 0, err
	}
	var h digest
	for day := 0; day < cfg.Days; day++ {
		for i, sink := range fed.sinks {
			if day > 0 {
				sink.Rollover()
			}
			sys, err := sim.New(fed.dayConfig(i, day), sink)
			if err != nil {
				return 0, err
			}
			armFaults(sys, fed.surge(i, day), nil)
			sys.Run(fed.mgrs[i])
			h.chain(hashFrames(sys.Recorder().Frames()))
		}
	}
	return uint64(h), nil
}
