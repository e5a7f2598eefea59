package battery

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"insure/internal/journal"
	"insure/internal/units"
)

// The store keeps each unit's usable capacity in a column and caches the
// well-relaxation factor per step length. These tests pin both caches to
// the formulas they replace: after any sequence of state changes, every
// read-out must equal the direct computation bit for bit.

// refCapAh is usable capacity computed directly from the unit's state.
func refCapAh(p Params, st UnitState) float64 {
	fade := p.FadeAtEOL * math.Min(float64(st.Throughput)/float64(p.LifetimeAh), 1.5)
	return float64(p.CapacityAh) * (1 - fade) * (1 - st.FaultLoss)
}

// refSnapshot is Snapshot computed directly from the unit's state, each
// read-out on its own.
func refSnapshot(p Params, st UnitState) Snapshot {
	capAh := refCapAh(p, st)
	availSoC := func() float64 {
		denom := capAh * p.CapacityRatio
		return units.Clamp(st.AvailAh/denom, 0, 1)
	}
	ocv := units.Volt(units.Lerp(float64(p.OCVEmpty), float64(p.OCVFull), availSoC()))
	return Snapshot{
		SoC:          units.Clamp((st.AvailAh+st.BoundAh)/capAh, 0, 1),
		AvailableSoC: availSoC(),
		Terminal:     units.Volt(float64(ocv) - float64(st.LastI)*p.InternalOhm),
		LastCurrent:  st.LastI,
		Throughput:   st.Throughput,
		StoredEnergy: units.WattHour((st.AvailAh + st.BoundAh) * float64(p.NominalVolt)),
	}
}

// refRest is Rest computed directly: the KiBaM relaxation with its
// exponential evaluated afresh.
func refRest(p Params, st UnitState, dt time.Duration) UnitState {
	c, dtSec, capAh := p.CapacityRatio, dt.Seconds(), refCapAh(p, st)
	h1 := st.AvailAh / c
	h2 := st.BoundAh / (1 - c)
	kk := p.RateConst * (1/c + 1/(1-c))
	delta := (h2 - h1) * (1 - math.Exp(-kk*dtSec))
	q := delta / (1/c + 1/(1-c))
	st.AvailAh += q
	st.BoundAh -= q
	if st.AvailAh < 0 {
		st.AvailAh = 0
	}
	if st.BoundAh < 0 {
		st.BoundAh = 0
	}
	if st.AvailAh > capAh*c {
		st.AvailAh = capAh * c
	}
	if st.BoundAh > capAh*(1-c) {
		st.BoundAh = capAh * (1 - c)
	}
	st.LastI = 0
	return st
}

func randomState(rng *rand.Rand, p Params) UnitState {
	capAh := float64(p.CapacityAh)
	return UnitState{
		AvailAh:    rng.Float64() * capAh * p.CapacityRatio,
		BoundAh:    rng.Float64() * capAh * (1 - p.CapacityRatio),
		LastI:      units.Amp(rng.Float64()*30 - 10),
		Throughput: units.AmpHour(rng.Float64() * 2 * float64(p.LifetimeAh)),
		RawOut:     units.AmpHour(rng.Float64() * 100),
		RawIn:      units.AmpHour(rng.Float64() * 100),
		Cycles:     rng.Float64() * 10,
		FaultLoss:  rng.Float64() * 0.5,
	}
}

func TestReadoutsMatchDirectFormulas(t *testing.T) {
	fast := DefaultParams()
	fast.LifetimeAh = 40 // fade reaches its 1.5× cap within one sequence
	for _, p := range []Params{DefaultParams(), fast} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			b := MustNewBank(p, 3, rng.Float64())
			steps := []time.Duration{time.Second, time.Second, 30 * time.Second, 250 * time.Millisecond}
			for op := 0; op < 400; op++ {
				k := rng.Intn(b.Size())
				u := b.Unit(k)
				dt := steps[rng.Intn(len(steps))]
				switch rng.Intn(8) {
				case 0, 1:
					u.Discharge(units.Amp(rng.Float64()*40), dt)
				case 2:
					u.Charge(units.Amp(rng.Float64()*12), dt)
				case 3:
					want := refRest(p, u.State(), dt)
					u.Rest(dt)
					if got := u.State(); got != want {
						t.Fatalf("seed %d op %d: Rest(%v) = %+v, direct %+v", seed, op, dt, got, want)
					}
				case 4:
					u.InjectCapacityLoss(rng.Float64() * 0.3)
				case 5:
					u.Restore(randomState(rng, p))
				case 6:
					var e journal.Encoder
					e.Int(b.Size())
					for range b.Units() {
						randomState(rng, p).AppendTo(&e)
					}
					if err := b.RestoreState(journal.NewDecoder(e.Bytes())); err != nil {
						t.Fatal(err)
					}
				case 7:
					u.SetSoC(rng.Float64())
				}
				for i, v := range b.Units() {
					st := v.State()
					if got, want := float64(v.EffectiveCapacity()), refCapAh(p, st); got != want {
						t.Fatalf("seed %d op %d unit %d: EffectiveCapacity %v, direct %v", seed, op, i, got, want)
					}
					if got, want := v.Snapshot(), refSnapshot(p, st); got != want {
						t.Fatalf("seed %d op %d unit %d: Snapshot %+v, direct %+v", seed, op, i, got, want)
					}
				}
			}
		}
	}
}

func BenchmarkUnitSnapshot(b *testing.B) {
	bank := MustNewBank(DefaultParams(), 6, 0.6)
	for i, u := range bank.Units() {
		u.Discharge(units.Amp(5+i), time.Minute)
	}
	us := bank.Units()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = us[i%len(us)].Snapshot()
	}
}

// snapshotSink keeps BenchmarkUnitSnapshot's calls from being optimized
// away.
var snapshotSink Snapshot

func BenchmarkBankRest(b *testing.B) {
	bank := MustNewBank(DefaultParams(), 6, 0.6)
	for i, u := range bank.Units() {
		u.Discharge(units.Amp(5+i), time.Minute)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.RestAll(time.Second)
	}
}
