package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"insure/internal/baseline"
	"insure/internal/core"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
)

// campaignTraceSeeds is the number of solar days per weather class. A
// batch is the full weather × sink × manager grid on one of them, so the
// pinned pool is 4 × 12 cells.
const campaignTraceSeeds = 4

var weathers = [3]solar.Condition{solar.Sunny, solar.Cloudy, solar.Rainy}

type campaignCell struct {
	weather solar.Condition
	video   bool
	insure  bool
	t       int
}

func (c campaignCell) key() string {
	sink, mgr := "seismic", "baseline"
	if c.video {
		sink = "video"
	}
	if c.insure {
		mgr = "insure"
	}
	return fmt.Sprintf("%s/%s/%s/t%d", c.weather, sink, mgr, c.t)
}

// campaignBench runs the grid through sim.RunCampaign on NumCPU workers.
// Traces and per-worker solar LUTs are built in setup: each cell takes a
// warmed Arena from arenas for sim.New and hands it back, so no cell pays
// for a LUT build and no Arena is used by two goroutines at once.
type campaignBench struct {
	o       *options
	workers int
	traces  [len(weathers)][campaignTraceSeeds]*trace.Trace
	arenas  chan *sim.Arena
	tracers []*tracer
}

func (b *campaignBench) poolUnits() int { return campaignTraceSeeds }
func (b *campaignBench) close() error   { return nil }

func (b *campaignBench) setup() error {
	b.workers = runtime.NumCPU()
	for w := range weathers {
		for t := 0; t < campaignTraceSeeds; t++ {
			b.traces[w][t] = trace.Table6Day(weathers[w], int64(100*t+w))
		}
	}
	b.arenas = make(chan *sim.Arena, b.workers)
	for i := 0; i < b.workers; i++ {
		a := sim.NewArena()
		for w := range weathers {
			for _, tr := range b.traces[w] {
				cfg := sim.DefaultConfig(tr)
				cfg.Arena = a
				if _, err := sim.New(cfg, sim.NewSeismicSink()); err != nil {
					return err
				}
			}
		}
		b.arenas <- a
	}
	return nil
}

func (b *campaignBench) unit(k int, rs *runStats) error {
	t := int((b.o.seed + int64(k)) % campaignTraceSeeds)
	if t < 0 {
		t += campaignTraceSeeds
	}
	var cells []campaignCell
	for w := range weathers {
		for _, video := range []bool{false, true} {
			for _, insure := range []bool{true, false} {
				cells = append(cells, campaignCell{weathers[w], video, insure, t})
			}
		}
	}
	rng := rand.New(rand.NewSource(b.o.seed*7919 + int64(k)))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	traced := b.o.traced && k%2 == 0
	if traced && b.tracers == nil {
		b.tracers = make([]*tracer, len(cells))
		for i := range b.tracers {
			b.tracers[i] = &tracer{}
		}
	}
	starts := make([]time.Time, len(cells))
	ends := make([]time.Time, len(cells))
	hours := make([]float64, len(cells))
	runs := make([]sim.CampaignRun, len(cells))
	for i := range cells {
		i, c := i, cells[i]
		runs[i] = sim.CampaignRun{
			Name: c.key(),
			Setup: func(*sim.Arena) (*sim.System, sim.Manager, error) {
				starts[i] = time.Now()
				a := <-b.arenas
				cfg := sim.DefaultConfig(b.traces[c.weather][c.t])
				cfg.Arena = a
				var sink sim.Sink = sim.NewSeismicSink()
				if c.video {
					sink = sim.NewVideoSink()
				}
				sys, err := sim.New(cfg, sink)
				b.arenas <- a
				if err != nil {
					return nil, nil, err
				}
				var mgr sim.Manager
				if c.insure {
					mcfg := core.DefaultConfig()
					mcfg.Survival = core.DefaultSurvivalConfig()
					mgr = core.New(mcfg, cfg.BatteryCount)
				} else {
					mgr = baseline.New(baseline.DefaultConfig())
				}
				start, end := sys.Span()
				hours[i] = (end - start).Hours()
				last := end - cfg.Step
				if !traced {
					sys.SetTickHook(func(tod time.Duration) {
						if tod == last {
							ends[i] = time.Now()
						}
					})
					return sys, mgr, nil
				}
				tr := b.tracers[i]
				tr.simNewMs = append(tr.simNewMs, float64(time.Since(starts[i]))/1e6)
				tr.instrument(sys)
				sys.SetTickHook(func(tod time.Duration) {
					tr.tickHook(tod)
					if tod == last {
						ends[i] = time.Now()
					}
				})
				return sys, &spanManager{Manager: mgr, t: tr}, nil
			},
		}
	}

	var w allocWindow
	if traced {
		w = rs.lay.openWindow()
	}
	t0 := time.Now()
	results, err := sim.RunCampaign(context.Background(), b.workers, runs)
	wall := time.Since(t0)
	if traced {
		for _, tr := range b.tracers {
			// A cell's last tick has no later boundary on its tracer.
			tr.tickOpen = false
			rs.lay.merge(tr)
			*tr = tracer{}
		}
		rs.lay.closeWindow(w)
	}
	if err != nil {
		rs.fail(int64(len(cells)))
		return nil
	}
	var batchHours float64
	for i, c := range cells {
		rs.check(c.key(), digest(results[i]), 1)
		ms := float64(ends[i].Sub(starts[i])) / 1e6
		if traced {
			rs.tracedDayMs = append(rs.tracedDayMs, ms)
		} else {
			rs.dayMs = append(rs.dayMs, ms)
		}
		batchHours += hours[i]
	}
	if !traced {
		rs.rate(batchHours, float64(wall)/1e6)
	}
	return nil
}
