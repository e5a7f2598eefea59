package gateway

import (
	"testing"

	"insure/internal/core"
)

// offerPaths are Offer's three outcomes, each measured on a gateway set
// up so that every Standard request at t=0 takes that path.
var offerPaths = []struct {
	name string
	want Decision
}{
	{"served", Served},
	{"queued", Queued},
	{"shed", Shed},
}

// drainEvery bounds the queued path's queue below Standard's MaxQueue of
// 128: the benchmark drains the queue this often, outside the timer.
const drainEvery = 100

// offerGateway returns an advanced gateway on which Offer(0, Standard)
// takes the path that decides want.
func offerGateway(want Decision) *Gateway {
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.8}
	cfg := DefaultConfig()
	switch want {
	case Served:
		cfg.Burst = 1e15 // never runs out of tokens
	case Queued:
		// One token, then a queue whose projected wait stays far inside
		// the deadline.
		cfg.BaseQPS = 1000
		cfg.Burst = 1
	case Shed:
		plant.set(core.ModeSurvival, 0.3) // Survival sheds Standard
	}
	gw := New(cfg, plant)
	gw.Advance(0)
	if want == Queued {
		gw.Offer(0, Standard) // spend the token
		// Grow the queue's backing array once, so the measured pushes
		// reuse it.
		for i := 0; i < drainEvery+1; i++ {
			gw.Offer(0, Standard)
		}
		gw.Drain(0)
	}
	return gw
}

// BenchmarkGatewayOffer measures one admission decision per path on a
// gateway between two Advances: the per-request cost the serving plane
// pays for each of its ~3.5M requests per simulated day.
func BenchmarkGatewayOffer(b *testing.B) {
	for _, path := range offerPaths {
		b.Run(path.name, func(b *testing.B) {
			gw := offerGateway(path.want)
			if got := gw.Offer(0, Standard).Decision; got != path.want {
				b.Fatalf("decision %v, want %v", got, path.want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if path.want == Queued && i%drainEvery == drainEvery-1 {
					b.StopTimer()
					gw.Drain(0)
					b.StartTimer()
				}
				offerSink = gw.Offer(0, Standard)
			}
		})
	}
}

// offerSink keeps the benchmarked call's result live.
var offerSink Outcome

// TestOfferAllocFree pins every Offer path at zero heap allocations: the
// decision reads the state of the last Advance, the retry hint is
// memoised, and queued requests are stored by value.
func TestOfferAllocFree(t *testing.T) {
	for _, path := range offerPaths {
		gw := offerGateway(path.want)
		var got Decision
		allocs := testing.AllocsPerRun(drainEvery-1, func() {
			got = gw.Offer(0, Standard).Decision
		})
		if got != path.want {
			t.Fatalf("%s: decision %v, want %v", path.name, got, path.want)
		}
		if allocs != 0 {
			t.Errorf("%s: Offer allocates %.0f times per call, want 0", path.name, allocs)
		}
	}
}
