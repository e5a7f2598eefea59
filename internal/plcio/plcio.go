// Package plcio binds a PLC's scan cycle to the battery panel it controls:
// the sample pass transduces every unit's terminal voltage and current into
// the input registers, and the actuate pass drives every relay pair from its
// coils. The in-process plant (sim.System) and the standalone panel daemon
// (insure-plcd) run this one binding, so the register map is realised in
// exactly one place.
package plcio

import (
	"insure/internal/battery"
	"insure/internal/plc"
	"insure/internal/relay"
	"insure/internal/sensor"
	"insure/internal/units"
)

// Panel is the plant a PLC scans.
type Panel struct {
	Bank   *battery.Bank
	Fabric *relay.Fabric
	Probes []*sensor.BatteryProbe // one per unit
	// Solar and Load point at the bus powers the sample pass publishes,
	// in watts clamped to a register's [0, 65535]. The owner updates them
	// between scans.
	Solar, Load *units.Watt
}

// binding holds the panel plus the scratch the passes reuse, so a
// steady-state scan allocates nothing.
type binding struct {
	Panel
	codes []uint16 // unit i's voltage and current codes at 2i, 2i+1
	bus   []uint16 // solar and load power
	coils []bool   // unit i's charge and discharge coils at 2i, 2i+1
}

// Bind installs pan's sample and actuate passes as p.Sample and p.Actuate.
// Each pass takes the register-file lock once.
func Bind(p *plc.PLC, pan Panel) {
	n := pan.Bank.Size()
	b := &binding{
		Panel: pan,
		codes: make([]uint16, 2*n),
		bus:   make([]uint16, 2),
		coils: make([]bool, 2*n),
	}
	p.Sample = b.sample
	p.Actuate = b.actuate
}

// sample reads every unit through its probe into the input registers, then
// the bus powers.
func (b *binding) sample(r *plc.RegisterFile) {
	for i, u := range b.Bank.Units() {
		snap := u.Snapshot()
		probe := b.Probes[i]
		probe.Sample(snap.Terminal, snap.LastCurrent)
		b.codes[2*i] = probe.Volt.Raw()
		b.codes[2*i+1] = probe.Current.Raw()
	}
	_ = r.SetInputs(plc.InputVolt(0), b.codes)
	b.bus[0] = uint16(units.Clamp(float64(*b.Solar), 0, 65535))
	b.bus[1] = uint16(units.Clamp(float64(*b.Load), 0, 65535))
	_ = r.SetInputs(plc.InputSolarPower, b.bus)
}

// actuate drives each relay pair from its coil pair, refusing the
// double-closed command.
func (b *binding) actuate(r *plc.RegisterFile) {
	if err := r.CoilsInto(plc.CoilCharge(0), b.coils); err != nil {
		return
	}
	for i := 0; i < len(b.coils)/2; i++ {
		cr, dr := b.coils[2*i], b.coils[2*i+1]
		pair := b.Fabric.Pair(i)
		switch {
		case cr && dr:
			// Interlock: refuse the double-closed command.
			pair.SetMode(relay.Open)
		case cr:
			pair.SetMode(relay.Charging)
		case dr:
			pair.SetMode(relay.Discharging)
		default:
			pair.SetMode(relay.Open)
		}
	}
}
