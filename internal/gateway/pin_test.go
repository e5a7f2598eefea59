package gateway

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/sim"
	"insure/internal/trace"
	"insure/internal/units"
)

// outcomePin is the FNV-64a hash of every Outcome field of the replay in
// TestOutcomePin. It was recorded with the gateway that read the plant on
// every request and walked the forecast on every shed, so it proves the
// per-tick snapshot and the retry-after memo change no decision, no retry
// hint and no reported SoC. Do not re-record it to make a change pass.
const outcomePin = 0x6d7283dfc56beb1d

// TestOutcomePin replays one sunny and one storm two-site day through
// Offer, at the serving benchmark's 40 QPS against 2 × 15 QPS of capacity,
// and hashes every field of every Outcome. Stats-only digests cannot see a
// stale retry hint or a stale SoC in a response; this pin can.
func TestOutcomePin(t *testing.T) {
	h := fnv.New64a()
	for _, reg := range DefaultLoadConfig(1).Regimes {
		pinDay(t, h, reg)
	}
	if got := h.Sum64(); got != outcomePin {
		t.Fatalf("outcome hash %#x, want %#x", got, uint64(outcomePin))
	}
}

// pinDay replays one regime's day and feeds every Outcome into h.
func pinDay(t *testing.T, h hash.Hash64, reg Regime) {
	t.Helper()
	const sites, qps = 2, 40
	specs := make([]sim.FleetSpec, sites)
	mgrs := make([]*core.Manager, sites)
	for i := range specs {
		tr := trace.Synthesize(reg.Weather, int64(1+i), time.Second)
		if reg.PeakW > 0 {
			tr = tr.ScaleToPeak(units.Watt(reg.PeakW))
		}
		sc := sim.DefaultConfig(tr)
		sc.InitialSoC = reg.InitialSoC
		mc := core.DefaultConfig()
		mc.Survival = core.DefaultSurvivalConfig()
		mgrs[i] = core.New(mc, sc.BatteryCount)
		var sink sim.Sink = sim.NewSeismicSink()
		if i%2 == 1 {
			sink = sim.NewVideoSink()
		}
		specs[i] = sim.FleetSpec{Config: sc, Sink: sink, Manager: mgrs[i]}
	}
	fl, err := sim.NewFleet(specs)
	if err != nil {
		t.Fatal(err)
	}
	gws := make([]*Gateway, sites)
	for i := range gws {
		gws[i] = New(Config{BaseQPS: 15}, SimPlant{Sys: fl.System(i), Mgr: mgrs[i]})
	}

	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	lo, hi := fl.Bounds()
	step := fl.Step()
	var acc float64
	n := 0
	for tod := lo; tod < hi; tod += step {
		fl.Tick(tod)
		for _, gw := range gws {
			gw.Advance(tod)
		}
		acc += qps * step.Seconds()
		for acc >= 1 {
			acc--
			out := gws[n%sites].Offer(tod, classMix[n%len(classMix)])
			n++
			put(uint64(out.Decision))
			put(uint64(out.Class))
			put(uint64(out.Reason))
			if out.Degraded {
				put(1)
			} else {
				put(0)
			}
			put(math.Float64bits(out.WaitMs))
			put(math.Float64bits(out.LatencyMs))
			put(uint64(out.RetryAfter))
			put(math.Float64bits(out.EnergyWh))
			put(math.Float64bits(out.CostUSD))
			put(uint64(out.Mode))
			put(math.Float64bits(out.SoC))
		}
	}
	fl.Finish()
	for _, gw := range gws {
		gw.Drain(hi)
		if st := gw.Stats(); st.AdmittedDropped != 0 {
			t.Fatalf("%s: admitted-then-dropped = %d", reg.Name, st.AdmittedDropped)
		}
	}
}
