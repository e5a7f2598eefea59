package sim_test

import (
	"testing"

	"insure/internal/sim"
	"insure/internal/trace"
)

// BenchmarkPLCScan measures one PLC scan cycle of the default plant: the
// sample pass (six battery snapshots through their probes into the input
// registers) and the actuate pass (twelve relay coils onto the fabric).
func BenchmarkPLCScan(b *testing.B) {
	sys, err := sim.New(sim.DefaultConfig(trace.FullSystemHigh()), sim.NewSeismicSink())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.PLC.ScanNow()
	}
}
