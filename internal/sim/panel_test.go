package sim_test

import (
	"testing"
	"time"

	"insure/internal/modbus"
	"insure/internal/plc"
	"insure/internal/relay"
	"insure/internal/sim"
	"insure/internal/trace"
)

// TestPanelServedWhileTicking runs the scan cycle's bulk register passes
// against a live Modbus server: while the plant ticks, a client polls the
// input registers and coils and writes relay coils from its own goroutine.
// Run it under -race; it also checks the polled codes are live readings and
// that a coil written over the wire reaches the relay fabric.
func TestPanelServedWhileTicking(t *testing.T) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, err := sys.ServePanel()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cli, err := modbus.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	n := uint16(cfg.BatteryCount)
	ready, done := make(chan struct{}), make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		var err error
		defer func() { polled <- err }()
		for i := 0; ; i++ {
			if i == 1 {
				close(ready)
			}
			select {
			case <-done:
				return
			default:
			}
			var codes []uint16
			if codes, err = cli.ReadInput(plc.InputVolt(0), 2*n); err != nil {
				return
			}
			if codes[0] == 0 {
				t.Error("unit 0 voltage code reads zero under a live scan")
			}
			if _, err = cli.ReadCoils(plc.CoilCharge(0), 2*n); err != nil {
				return
			}
			unit := i % int(n)
			if err = cli.WriteCoils(plc.CoilCharge(unit), []bool{i%3 == 0, i%3 == 1}); err != nil {
				return
			}
		}
	}()
	// Start ticking once a full poll round is through, so the two
	// goroutines overlap.
	select {
	case <-ready:
	case err := <-polled:
		t.Fatalf("poller stopped before its first round: %v", err)
	}
	for tod := 10 * time.Hour; tod < 10*time.Hour+20*time.Minute; tod += cfg.Step {
		sys.Tick(tod, nil)
	}
	close(done)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}

	if err := cli.WriteCoils(plc.CoilCharge(2), []bool{false, true}); err != nil {
		t.Fatal(err)
	}
	sys.PLC.ScanNow()
	if got := sys.Fabric.Pair(2).Mode(); got != relay.Discharging {
		t.Errorf("coil written over Modbus left unit 2 in %v, want discharging", got)
	}
}
