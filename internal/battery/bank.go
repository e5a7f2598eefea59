package battery

import (
	"fmt"
	"time"

	"insure/internal/units"
)

// Bank is the distributed battery array: an indexed set of units that the
// relay fabric connects to the charge or discharge bus individually. A bank
// is a contiguous view over a BankSoA store — its own store normally, or a
// shared slice of a fleet-wide store (NewBankFleet) when many plants run in
// one process.
type Bank struct {
	soa   *BankSoA
	base  int    // first store slot owned by this bank
	units []Unit // handle per slot, contiguous
	ptrs  []*Unit
}

// newBankView wires a bank over store slots [base, base+n).
func newBankView(s *BankSoA, base, n int) *Bank {
	b := &Bank{soa: s, base: base, units: make([]Unit, n), ptrs: make([]*Unit, n)}
	for i := range b.units {
		b.units[i] = Unit{s: s, i: base + i}
		b.ptrs[i] = &b.units[i]
	}
	return b
}

// NewBank builds a bank of n identical units at the given initial SoC.
func NewBank(p Params, n int, soc float64) (*Bank, error) {
	if n <= 0 {
		return nil, fmt.Errorf("battery: bank size %d must be positive", n)
	}
	s, err := NewBankSoA(p, n, soc)
	if err != nil {
		return nil, err
	}
	return newBankView(s, 0, n), nil
}

// MustNewBank is NewBank for known-good parameters; it panics on error.
func MustNewBank(p Params, n int, soc float64) *Bank {
	b, err := NewBank(p, n, soc)
	if err != nil {
		panic(err)
	}
	return b
}

// NewBankFleet builds one bank per plant, all backed by a single shared
// store so a fleet's battery state is one contiguous block of memory. Plant
// i owns store slots [i·unitsPer, (i+1)·unitsPer). The banks are
// independent operationally — no power or charge passes between them — and
// stepping them interleaved is bit-identical to stepping per-plant stores.
// They do share the store's step-length cache (BankSoA.relax), so the banks
// of one fleet must be stepped from one goroutine.
func NewBankFleet(p Params, plants, unitsPer int, soc float64) ([]*Bank, *BankSoA, error) {
	if plants <= 0 || unitsPer <= 0 {
		return nil, nil, fmt.Errorf("battery: fleet of %d plants × %d units must be positive", plants, unitsPer)
	}
	s, err := NewBankSoA(p, plants*unitsPer, soc)
	if err != nil {
		return nil, nil, err
	}
	banks := make([]*Bank, plants)
	for i := range banks {
		banks[i] = newBankView(s, i*unitsPer, unitsPer)
	}
	return banks, s, nil
}

// SoA returns the store backing this bank. For a fleet bank the store spans
// every plant in the fleet, not just this bank's slots.
func (b *Bank) SoA() *BankSoA { return b.soa }

// Size returns the number of units in the bank.
func (b *Bank) Size() int { return len(b.units) }

// Unit returns unit i.
func (b *Bank) Unit(i int) *Unit { return &b.units[i] }

// Units returns the bank's unit handles (shared, not copied).
func (b *Bank) Units() []*Unit { return b.ptrs }

// StoredEnergy totals the energy held across all units.
func (b *Bank) StoredEnergy() units.WattHour {
	var e units.WattHour
	for i := range b.units {
		e += b.units[i].StoredEnergy()
	}
	return e
}

// MeanSoC is the capacity-weighted average state of charge.
func (b *Bank) MeanSoC() float64 {
	var s, c float64
	for i := range b.units {
		u := &b.units[i]
		s += u.SoC() * float64(u.s.p.CapacityAh)
		c += float64(u.s.p.CapacityAh)
	}
	if c == 0 {
		return 0
	}
	return s / c
}

// TotalThroughput sums wear-weighted throughput across units.
func (b *Bank) TotalThroughput() units.AmpHour {
	var t units.AmpHour
	for i := range b.units {
		t += b.units[i].Throughput()
	}
	return t
}

// ThroughputSpread returns max−min per-unit throughput, a direct measure of
// how well SPM balances wear across the array.
func (b *Bank) ThroughputSpread() units.AmpHour {
	if len(b.units) == 0 {
		return 0
	}
	min, max := b.units[0].Throughput(), b.units[0].Throughput()
	for i := 1; i < len(b.units); i++ {
		if t := b.units[i].Throughput(); t < min {
			min = t
		} else if t > max {
			max = t
		}
	}
	return max - min
}

// RestAll advances every unit with no current flowing. When the bank owns
// its whole store this is the flat batch loop; a fleet-slice bank steps just
// its own span (same kernel, same results).
func (b *Bank) RestAll(dt time.Duration) {
	if b.base == 0 && len(b.units) == b.soa.Len() {
		b.soa.RestAll(dt)
		return
	}
	for i := range b.units {
		b.units[i].Rest(dt)
	}
}

// DischargeSet draws total power p split evenly across the given unit
// indices for dt, and returns the energy actually delivered. Units whose
// available well empties deliver less; the caller sees the shortfall.
func (b *Bank) DischargeSet(idx []int, p units.Watt, dt time.Duration) units.WattHour {
	if len(idx) == 0 || p <= 0 {
		return 0
	}
	var delivered units.WattHour
	share := p / units.Watt(len(idx))
	for _, i := range idx {
		u := &b.units[i]
		v := u.TerminalVoltage()
		if v <= 0 {
			continue
		}
		cur := units.Current(share, v)
		got := u.Discharge(cur, dt)
		delivered += units.WattHour(float64(got) * float64(v))
	}
	return delivered
}

// ChargeSet pushes budget power into the given unit indices, splitting
// evenly, and returns the power actually consumed.
func (b *Bank) ChargeSet(idx []int, budget units.Watt, dt time.Duration) units.Watt {
	if len(idx) == 0 || budget <= 0 {
		return 0
	}
	var used units.Watt
	share := budget / units.Watt(len(idx))
	for _, i := range idx {
		used += b.units[i].ChargeAtPower(share, dt)
	}
	return used
}
