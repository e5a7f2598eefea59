package main

import (
	"fmt"
	"time"

	"insure/internal/core"
	"insure/internal/gateway"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
	"insure/internal/units"
)

const (
	servingSites   = 2
	servingUnits   = 8  // pinned days, alternating sunny and storm
	servingQPS     = 40 // fleet-wide offered rate, above the 2 × 15 QPS capacity
	servingSiteQPS = 15 // per-site gateway capacity, as the load harness sets it
)

// servingRegimes are the load harness's two energy scenarios: a sunny day
// that holds Normal and a storm day that walks the ladder down.
var servingRegimes = [2]struct {
	weather    solar.Condition
	peakW      float64
	initialSoC float64
}{
	{solar.Sunny, 0, 0.55},
	{solar.Rainy, 250, 0.48},
}

// servingClassMix is the fixed 1:6:3 critical:standard:best-effort rotation.
var servingClassMix = [10]gateway.Class{
	gateway.Critical, gateway.Standard, gateway.Standard, gateway.BestEffort, gateway.Standard,
	gateway.Standard, gateway.BestEffort, gateway.Standard, gateway.Standard, gateway.BestEffort,
}

// servingBench replays the serving-plane request stream in process: one
// caller ticks a two-site fleet and drives Gateway.Advance and
// Gateway.Offer, with arrivals from an accumulator (no RNG). Each day is a
// fresh fleet. Even pool days are sunny and odd ones storm days, and a
// timed unit is one pair of them, so every run holds the two regimes in
// equal parts and day_ms is the pair's mean: the two regimes cost
// different amounts, and a median over an unpaired mix would jump between
// them with the number of days that fit in the run.
type servingBench struct {
	o      *options
	traces [servingUnits][servingSites]*trace.Trace
}

func (b *servingBench) poolUnits() int { return servingUnits / 2 }
func (b *servingBench) close() error   { return nil }

func (b *servingBench) setup() error {
	for u := 0; u < servingUnits; u++ {
		reg := servingRegimes[u%2]
		for i := 0; i < servingSites; i++ {
			tr := trace.Synthesize(reg.weather, int64(10*u+i), time.Second)
			if reg.peakW > 0 {
				tr = tr.ScaleToPeak(units.Watt(reg.peakW))
			}
			b.traces[u][i] = tr
		}
	}
	return nil
}

func (b *servingBench) unit(k int, rs *runStats) error {
	pairs := int64(servingUnits / 2)
	p := int((b.o.seed + int64(k)) % pairs)
	if p < 0 {
		p += int(pairs)
	}
	traced := b.o.traced && k%2 == 0
	var ms, hours, requests float64
	for u := 2 * p; u < 2*p+2; u++ {
		dayMs, h, n := b.day(u, traced, rs)
		ms += dayMs
		hours += h
		requests += float64(n)
	}
	if traced {
		rs.tracedDayMs = append(rs.tracedDayMs, ms/2)
		return nil
	}
	rs.dayMs = append(rs.dayMs, ms/2)
	rs.rate(hours, ms)
	rs.requests += requests
	return nil
}

// day replays pool day u and returns its wall time, simulated plant hours
// and decided requests.
func (b *servingBench) day(u int, traced bool, rs *runStats) (float64, float64, int64) {
	reg := servingRegimes[u%2]
	var t *tracer
	if traced {
		t = &rs.lay
	}

	t0 := time.Now()
	specs := make([]sim.FleetSpec, servingSites)
	mgrs := make([]*core.Manager, servingSites)
	for i := range specs {
		sc := sim.DefaultConfig(b.traces[u][i])
		sc.InitialSoC = reg.initialSoC
		mc := core.DefaultConfig()
		mc.Survival = core.DefaultSurvivalConfig()
		mgrs[i] = core.New(mc, sc.BatteryCount)
		var sink sim.Sink = sim.NewSeismicSink()
		if i%2 == 1 {
			sink = sim.NewVideoSink()
		}
		specs[i] = sim.FleetSpec{Config: sc, Sink: sink, Manager: mgrs[i]}
		if traced {
			specs[i].Manager = &spanManager{Manager: mgrs[i], t: t}
		}
	}
	fl, err := sim.NewFleet(specs)
	if err != nil {
		rs.fail(servingSites)
		return float64(time.Since(t0)) / 1e6, 0, 0
	}
	gws := make([]*gateway.Gateway, servingSites)
	for i := range gws {
		var plant gateway.Plant = gateway.SimPlant{Sys: fl.System(i), Mgr: mgrs[i]}
		if traced {
			plant = spanPlant{Plant: plant, t: t}
			t.instrument(fl.System(i))
		}
		gws[i] = gateway.New(gateway.Config{BaseQPS: servingSiteQPS}, plant)
	}
	var w allocWindow
	if traced {
		t.simNewMs = append(t.simNewMs, float64(time.Since(t0))/1e6)
		w = t.openWindow()
	}

	lo, hi := fl.Bounds()
	step := fl.Step()
	var acc float64
	site, mix := 0, 0
	for tod := lo; tod < hi; tod += step {
		fl.Tick(tod)
		for _, gw := range gws {
			if traced {
				s := nanotime()
				gw.Advance(tod)
				t.topSpan(&t.advance, s, nanotime())
				continue
			}
			gw.Advance(tod)
		}
		acc += servingQPS * step.Seconds()
		for acc >= 1 {
			acc--
			gw, class := gws[site%servingSites], servingClassMix[mix%len(servingClassMix)]
			if traced {
				s := nanotime()
				gw.Offer(tod, class)
				t.topSpan(&t.offer, s, nanotime())
			} else {
				gw.Offer(tod, class)
			}
			site++
			mix++
		}
	}
	if traced {
		t.boundary(nanotime())
	}
	res := fl.Finish()
	for _, gw := range gws {
		gw.Drain(hi)
	}
	if traced {
		t.closeWindow(w)
	}
	ms := float64(time.Since(t0)) / 1e6

	stats := make([]gateway.Stats, len(gws))
	var requests, dropped int64
	for i, gw := range gws {
		stats[i] = gw.Stats()
		requests += int64(stats[i].Requests)
		dropped += int64(stats[i].AdmittedDropped)
	}
	ops := requests + servingSites
	if rs.check(fmt.Sprintf("u%d", u), digest(res, stats), ops) && dropped != 0 {
		rs.failed += ops
	}
	if traced {
		for _, st := range stats {
			rs.gwRequests += int64(st.Requests)
			for c := gateway.Class(0); c < gateway.NumClasses; c++ {
				rs.gwServed += int64(st.Admitted[c])
				rs.gwShed += int64(st.Shed[c])
				rs.gwQueued += int64(st.QueuedEver[c])
			}
		}
	}
	return ms, fl.SimulatedTime().Hours(), requests
}
