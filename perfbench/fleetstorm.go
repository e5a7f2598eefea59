package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"insure/internal/battery"
	"insure/internal/core"
	"insure/internal/fleet"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
	"insure/internal/wan"
	"insure/internal/workload"
)

// The federation insure-fleetd builds by default: three sites, site 0
// storm-parked, migration on, a degraded backhaul and 40 GB jobs.
const (
	fleetSites     = 3
	fleetDays      = 4 // days per episode, one coordinator and state dir
	fleetUnits     = 4 // pinned episodes
	fleetDarkSite  = 0
	fleetBatteries = 6
	fleetServers   = 4
	fleetJobGB     = 40
	fleetDrop      = 0.30
	fleetCorrupt   = 0.05
	fleetPeriod    = 5 * time.Minute // coordinator pass interval, fleet.Config's default
)

// fleetBench runs the federation day by day through Coordinator.RunDay,
// with the migration log, image store and day-boundary snapshot on disk
// and a scrub sweep after every day, as insure-fleetd -state-dir does.
type fleetBench struct {
	o      *options
	traces [fleetUnits][fleetDays][fleetSites]*trace.Trace
	ep     *fleetEpisode
}

type fleetEpisode struct {
	unit   int
	traced bool
	t      *tracer
	banks  []*battery.Bank
	sinks  []*sim.BatchSink
	mgrs   []*core.Manager
	coord  *fleet.Coordinator
	images *fleet.ImageStore
	snap   *journal.Store
	scrub  *journal.Scrubber
	day    int

	dayStart   int64
	plantHours float64
	prevTot    fleet.Totals
	prevImages int
}

func (b *fleetBench) poolUnits() int { return fleetUnits * fleetDays }

// fleetDayTrace is insure-fleetd's per-site weather lane.
func fleetDayTrace(seed int64, site, day int) *trace.Trace {
	if site == fleetDarkSite {
		return trace.Synthesize(solar.Rainy, seed+31*int64(day), time.Second)
	}
	return trace.Synthesize(solar.Sunny, seed+1000*int64(site+1)+int64(day), time.Second)
}

func (b *fleetBench) setup() error {
	for u := 0; u < fleetUnits; u++ {
		for d := 0; d < fleetDays; d++ {
			for s := 0; s < fleetSites; s++ {
				b.traces[u][d][s] = fleetDayTrace(int64(u+1), s, d)
			}
		}
	}
	return nil
}

func (b *fleetBench) close() error {
	ep := b.ep
	if ep == nil {
		return nil
	}
	b.ep = nil
	err := ep.coord.Close()
	if cerr := ep.snap.Close(); err == nil {
		err = cerr
	}
	return err
}

// startEpisode assembles a cold federation from the fleet, wan and
// journal public constructors, the way insure-fleetd's newWorld does.
func (b *fleetBench) startEpisode(e int, rs *runStats) error {
	if err := b.close(); err != nil {
		return err
	}
	u := int((b.o.seed + int64(e)) % fleetUnits)
	if u < 0 {
		u += fleetUnits
	}
	seed := int64(u + 1)
	ep := &fleetEpisode{unit: u, traced: b.o.traced && e%2 == 0}
	dir := filepath.Join(b.o.workdir, fmt.Sprintf("e%d", e))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	var fsys journal.FS = journal.Disk
	if ep.traced {
		ep.t = &rs.lay
		fsys = &spanFS{inner: journal.Disk, t: ep.t}
	}
	sites := make([]fleet.Site, fleetSites)
	for i := range sites {
		soc := 0.50
		arrivals := []time.Duration{7 * time.Hour}
		if i == fleetDarkSite {
			soc = 0.30
			arrivals = []time.Duration{7 * time.Hour, 13 * time.Hour}
		}
		bank, err := battery.NewBank(battery.DefaultParams(), fleetBatteries, soc)
		if err != nil {
			return err
		}
		mcfg := core.DefaultConfig()
		mcfg.Survival = core.DefaultSurvivalConfig()
		mgr := core.New(mcfg, fleetBatteries)
		sink := &sim.BatchSink{Queue: workload.NewBatchQueue(workload.Seismic()), Arrivals: arrivals, JobGB: fleetJobGB}
		ep.banks = append(ep.banks, bank)
		ep.mgrs = append(ep.mgrs, mgr)
		ep.sinks = append(ep.sinks, sink)
		sites[i] = fleet.Site{Name: fmt.Sprintf("site%d", i), Sink: sink, Manager: mgr}
		if ep.traced {
			sites[i].Manager = &spanCoreManager{Manager: mgr, t: ep.t}
		}
	}
	net, err := wan.New(wan.Config{
		Seed: seed, Sites: fleetSites, DropRate: fleetDrop, CorruptRate: fleetCorrupt,
		Outages: wan.PlanOutages(seed+77, fleetDays, fleetSites, 1, 9*time.Hour, 21*time.Hour, 2*time.Hour, 6*time.Hour),
	})
	if err != nil {
		return err
	}
	logDir := filepath.Join(dir, "miglog")
	if err := fsys.MkdirAll(logDir); err != nil {
		return err
	}
	if ep.images, err = fleet.NewImageStore(fsys, filepath.Join(dir, "images")); err != nil {
		return err
	}
	ep.scrub = journal.NewScrubber(
		journal.Target{Name: "snapshots", Dir: dir, FS: fsys},
		journal.Target{Name: "miglog", Dir: logDir, FS: fsys},
		journal.Target{Name: "images", Dir: ep.images.Dir(), FS: fsys},
	)
	cfg := fleet.Config{
		Migration: true,
		Period:    fleetPeriod,
		WAN:       net,
		LogDir:    logDir,
		LogFS:     fsys,
		Images:    ep.images,
		Prepare: func(_ int, fl *sim.Fleet) {
			ep.plantHours = fl.SimulatedTime().Hours()
			if !ep.traced {
				return
			}
			ep.t.simNewMs = append(ep.t.simNewMs, float64(nanotime()-ep.dayStart)/1e6)
			for i := 0; i < fl.Size(); i++ {
				ep.t.instrument(fl.System(i))
			}
			ep.t.sawPoll = false
		},
	}
	if ep.traced {
		ep.t.logDir = logDir
		ep.t.coordPeriod = fleetPeriod
		cfg.Abort = ep.t.abortPoll
	}
	if ep.coord, err = fleet.New(cfg, sites); err != nil {
		return err
	}
	if ep.snap, err = journal.OpenFS(fsys, dir); err != nil {
		return err
	}
	b.ep = ep
	return nil
}

func (b *fleetBench) unit(k int, rs *runStats) error {
	e, d := k/fleetDays, k%fleetDays
	if d == 0 || b.ep == nil {
		if err := b.startEpisode(e, rs); err != nil {
			return err
		}
	}
	ep := b.ep
	t := ep.t
	cfgs := make([]sim.Config, fleetSites)
	for i := range cfgs {
		c := sim.DefaultConfig(b.traces[ep.unit][d][i])
		c.BatteryCount = fleetBatteries
		c.ServerCount = fleetServers
		c.RecordEvery = time.Minute
		c.Bank = ep.banks[i]
		cfgs[i] = c
	}

	t0 := time.Now()
	ep.dayStart = nanotime()
	var w allocWindow
	if t != nil {
		w = t.openWindow()
	}
	res, err := ep.coord.RunDay(cfgs)
	if t != nil {
		t.boundary(nanotime())
		t.closeWindow(w)
		t.runDayMs = append(t.runDayMs, float64(time.Since(t0))/1e6)
	}
	if err != nil {
		rs.fail(1)
		return b.close()
	}
	ep.day++
	serr := b.snapshot()
	if t != nil {
		t.inScrub = true
	}
	s0 := time.Now()
	reps, scrubErr := ep.scrub.RunOnce()
	if t != nil {
		t.inScrub = false
		t.scrubMs = append(t.scrubMs, float64(time.Since(s0))/1e6)
	}
	rs.day(float64(time.Since(t0))/1e6, ep.plantHours, ep.traced)

	tot := ep.coord.Totals()
	for i := range reps {
		reps[i].Dir = ""
	}
	key := fmt.Sprintf("u%d/d%d", ep.unit, d)
	if rs.check(key, digest(res, tot, reps), 1) &&
		(tot.JobsDoubleRun != 0 || tot.SplitBrain != 0 || serr != nil || scrubErr != nil) {
		rs.failed++
	}
	if ep.traced {
		p := ep.prevTot
		rs.chunkFails += int64(tot.ChunkDrops + tot.ChunkCorrupts - p.ChunkDrops - p.ChunkCorrupts)
		rs.goodputGB += tot.MigratedGB + tot.CheckpointGB - p.MigratedGB - p.CheckpointGB
		rs.retransmitGB += tot.RetransmitGB - p.RetransmitGB
		rs.migrations += int64(tot.Migrations - p.Migrations)
		v := ep.images.Stats().Verified
		rs.imagesVerified += int64(v - ep.prevImages)
		ep.prevImages = v
	}
	ep.prevTot = tot
	return nil
}

// snapshot persists the day-boundary state exactly as insure-fleetd does:
// completed days, migration-log sequence, coordinator state, and every
// site's batteries, control state and queues.
func (b *fleetBench) snapshot() error {
	ep := b.ep
	var enc, scratch journal.Encoder
	enc.U8(1)
	enc.Int(ep.day)
	enc.U64(ep.coord.LogSeq())
	ep.coord.AppendState(&enc)
	for i := range ep.banks {
		ep.banks[i].AppendState(&enc)
		scratch.Reset()
		ep.mgrs[i].AppendState(&scratch)
		enc.String(string(scratch.Bytes()))
		ep.sinks[i].AppendState(&enc)
	}
	return ep.snap.Snapshot(enc.Bytes())
}
