package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"insure/internal/battery"
	"insure/internal/core"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

const (
	durableDays  = 4 // days per episode, on one bank and one state dir
	durableUnits = 8 // pinned episodes
	durableKills = 4 // kills per day: half clean, half torn
	tornBytes    = 40
)

type killEvent struct {
	at   time.Duration
	torn bool
}

// durableBench runs one plant the way insure-sim -state-dir -kill-at
// [-torn-kill] does, but over several days: a journaled InSURE manager with
// fsync on, telemetry attached, the scrubber sweeping after each day, and
// planned kills that drop the controller and rebuild it from disk with
// core.Recover + Reconcile while the plant keeps running.
type durableBench struct {
	o      *options
	traces [durableUnits][durableDays]*trace.Trace
	kills  [durableUnits][durableDays][]killEvent
	ep     *durableEpisode
}

type durableEpisode struct {
	unit   int
	dir    string
	traced bool
	bank   *battery.Bank
	store  *journal.Store
	jm     *core.JournaledManager
	reg    *telemetry.Registry
	scrub  *journal.Scrubber
	fs     *spanFS // traced episodes only
}

func durableManagerConfig() core.Config {
	c := core.DefaultConfig()
	c.Survival = core.DefaultSurvivalConfig()
	return c
}

func (b *durableBench) poolUnits() int { return durableUnits * durableDays }

func (b *durableBench) setup() error {
	for u := 0; u < durableUnits; u++ {
		for d := 0; d < durableDays; d++ {
			b.traces[u][d] = trace.Table6Day(weathers[(u+d)%len(weathers)], int64(1000+10*u+d))
			rng := rand.New(rand.NewSource(int64(100*u + d)))
			seen := map[time.Duration]bool{}
			var ks []killEvent
			for len(ks) < durableKills {
				at := 7*time.Hour + time.Duration(rng.Intn(13*3600))*time.Second
				if !seen[at] {
					seen[at] = true
					ks = append(ks, killEvent{at: at, torn: len(ks)%2 == 1})
				}
			}
			sort.Slice(ks, func(i, j int) bool { return ks[i].at < ks[j].at })
			b.kills[u][d] = ks
		}
	}
	return nil
}

func (b *durableBench) close() error {
	if b.ep == nil {
		return nil
	}
	err := b.ep.store.Close()
	b.ep = nil
	return err
}

// startEpisode opens a fresh state dir and controller for episode e.
func (b *durableBench) startEpisode(e int, rs *runStats) error {
	if err := b.close(); err != nil {
		return err
	}
	u := int((b.o.seed + int64(e)) % durableUnits)
	if u < 0 {
		u += durableUnits
	}
	ep := &durableEpisode{unit: u, dir: filepath.Join(b.o.workdir, fmt.Sprintf("e%d", e)),
		traced: b.o.traced && e%2 == 0, reg: telemetry.NewRegistry()}
	if err := os.RemoveAll(ep.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(ep.dir, 0o755); err != nil {
		return err
	}
	var fsys journal.FS = journal.Disk
	if ep.traced {
		ep.fs = &spanFS{inner: journal.Disk, t: &rs.lay}
		fsys = ep.fs
	}
	bank, err := battery.NewBank(battery.DefaultParams(), 6, 0.5)
	if err != nil {
		return err
	}
	ep.bank = bank
	if ep.store, err = journal.OpenFS(fsys, ep.dir); err != nil {
		return err
	}
	mgr := core.New(durableManagerConfig(), bank.Size())
	mgr.AttachTelemetry(ep.reg)
	ep.jm = core.NewJournaled(mgr, ep.store)
	ep.scrub = journal.NewScrubber(journal.Target{Name: "state", Dir: ep.dir, FS: fsys})
	ep.scrub.AttachTelemetry(ep.reg)
	b.ep = ep
	return nil
}

func (b *durableBench) unit(k int, rs *runStats) error {
	e, d := k/durableDays, k%durableDays
	if d == 0 || b.ep == nil {
		if err := b.startEpisode(e, rs); err != nil {
			return err
		}
	}
	ep := b.ep
	kills := b.kills[ep.unit][d]
	ops := int64(1 + len(kills))
	var t *tracer
	if ep.traced {
		t = &rs.lay
	}
	mcfg := durableManagerConfig()

	t0 := time.Now()
	var excluded time.Duration // time spent in the benchmark's own checks
	cfg := sim.DefaultConfig(b.traces[ep.unit][d])
	cfg.Bank = ep.bank
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		rs.fail(ops)
		return b.close()
	}
	sys.AttachTelemetry(ep.reg)
	var mgr sim.Manager = ep.jm
	var wrap *spanManager
	if t != nil {
		t.simNewMs = append(t.simNewMs, float64(time.Since(t0))/1e6)
		t.instrument(sys)
		wrap = &spanManager{Manager: ep.jm, t: t}
		mgr = wrap
	}
	var w allocWindow
	if t != nil {
		w = t.openWindow()
	}
	failed := int64(0)
	journalErr := false
	start, end := sys.Span()
	next := 0
	for tod := start; tod < end; tod += cfg.Step {
		for next < len(kills) && kills[next].at <= tod {
			kl := kills[next]
			next++
			if t != nil {
				t.boundary(nanotime())
			}
			c0 := time.Now()
			var want []byte
			wantRec := ep.jm.Recoveries()
			if !kl.torn {
				want = ep.jm.Manager.State()
			}
			journalErr = journalErr || ep.jm.Err() != nil
			excluded += time.Since(c0)
			// Drop the controller: only the journal survives it.
			if err := ep.store.Close(); err != nil {
				journalErr = true
			}
			if kl.torn {
				if err := journal.TruncateTail(ep.dir, tornBytes); err != nil {
					return err
				}
			}
			r0 := time.Now()
			m2, st2, err := core.Recover(mcfg, cfg.BatteryCount, ep.dir)
			r1 := time.Now()
			if err != nil {
				rs.fail(ops)
				b.ep = nil
				return nil
			}
			m2.AttachTelemetry(ep.reg)
			r2 := time.Now()
			fixed := m2.Reconcile(sys, tod)
			r3 := time.Now()
			if t != nil {
				t.recoverMs = append(t.recoverMs, float64(r1.Sub(r0))/1e6)
				t.reconcileUs = append(t.reconcileUs, float64(r3.Sub(r2))/1e3)
				t.reconciliations += int64(fixed)
				// core.Recover reopened the store on the real disk; reopen
				// it through the span-recording FS.
				if err := st2.Close(); err != nil {
					return err
				}
				if st2, err = journal.OpenFS(ep.fs, ep.dir); err != nil {
					return err
				}
			} else {
				rs.recoveryMs = append(rs.recoveryMs, float64(r3.Sub(r0))/1e6)
			}
			ep.store = st2
			ep.jm = core.NewJournaled(m2, st2)
			if wrap != nil {
				wrap.Manager = ep.jm
			} else {
				mgr = ep.jm
			}
			if !kl.torn {
				c0 := time.Now()
				if !sameExceptRecoveries(want, m2.State(), wantRec) {
					failed++
				}
				excluded += time.Since(c0)
			}
		}
		sys.Tick(tod, mgr)
	}
	res := sys.Finish(mgr)
	if t != nil {
		t.boundary(nanotime())
		t.closeWindow(w)
	}
	s0 := time.Now()
	if t != nil {
		t.inScrub = true
	}
	reps, serr := ep.scrub.RunOnce()
	if t != nil {
		t.inScrub = false
		t.scrubMs = append(t.scrubMs, float64(time.Since(s0))/1e6)
	}
	ms := float64(time.Since(t0)-excluded) / 1e6
	rs.day(ms, (end - start).Hours(), ep.traced)

	for i := range reps {
		reps[i].Dir = ""
	}
	key := fmt.Sprintf("u%d/d%d", ep.unit, d)
	ok := rs.check(key, digest(res, ep.jm.Recoveries(), ep.jm.Reconciliations(), reps), ops)
	if ok && (serr != nil || journalErr || ep.jm.Err() != nil) {
		failed = ops
	}
	if ok {
		rs.failed += failed
	}
	return nil
}

// sameExceptRecoveries reports whether a recovered manager's state equals
// the state the dropped manager held, except for the persisted recovery
// counter, which must have advanced from rec to rec+1. The codec writes
// ints as fixed-width little-endian words, so the two encodings differ in
// exactly one 8-byte word.
func sameExceptRecoveries(want, got []byte, rec int) bool {
	if len(want) != len(got) {
		return false
	}
	i := 0
	for i < len(want) && want[i] == got[i] {
		i++
	}
	for o := max(0, i-7); o <= i && o+8 <= len(want); o++ {
		if binary.LittleEndian.Uint64(want[o:]) == uint64(rec) &&
			binary.LittleEndian.Uint64(got[o:]) == uint64(rec+1) &&
			bytes.Equal(want[:o], got[:o]) && bytes.Equal(want[o+8:], got[o+8:]) {
			return true
		}
	}
	return false
}
