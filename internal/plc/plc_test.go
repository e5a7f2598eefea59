package plc

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAddressHelpers(t *testing.T) {
	if CoilCharge(0) != 0 || CoilDischarge(0) != 1 {
		t.Error("unit 0 coil addresses wrong")
	}
	if CoilCharge(5) != 10 || CoilDischarge(5) != 11 {
		t.Error("unit 5 coil addresses wrong")
	}
	if InputVolt(3) != 6 || InputCurrent(3) != 7 {
		t.Error("unit 3 input addresses wrong")
	}
}

func TestRegisterFileCoils(t *testing.T) {
	r := NewRegisterFile(8, 0, 0, 0)
	if err := r.WriteCoil(3, true); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadCoils(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got[1] || got[0] || got[2] {
		t.Errorf("coils = %v", got)
	}
}

func TestRegisterFileBounds(t *testing.T) {
	r := NewRegisterFile(4, 4, 4, 4)
	if err := r.WriteCoil(4, true); !errors.Is(err, ErrAddress) {
		t.Errorf("coil OOB error = %v", err)
	}
	if _, err := r.ReadCoils(3, 2); !errors.Is(err, ErrAddress) {
		t.Errorf("coil read OOB error = %v", err)
	}
	if _, err := r.ReadHolding(0, 5); !errors.Is(err, ErrAddress) {
		t.Errorf("holding OOB error = %v", err)
	}
	if err := r.WriteHolding(3, []uint16{1, 2}); !errors.Is(err, ErrAddress) {
		t.Errorf("holding write OOB error = %v", err)
	}
	if err := r.SetInputs(9, []uint16{1}); !errors.Is(err, ErrAddress) {
		t.Errorf("input OOB error = %v", err)
	}
	if _, err := r.ReadDiscrete(2, 3); !errors.Is(err, ErrAddress) {
		t.Errorf("discrete OOB error = %v", err)
	}
}

func TestRegisterFileBulkBounds(t *testing.T) {
	r := NewRegisterFile(4, 0, 0, 4)
	if err := r.SetInputs(3, []uint16{1, 2}); !errors.Is(err, ErrAddress) {
		t.Errorf("bulk input write OOB error = %v", err)
	}
	if err := r.SetInputs(5, nil); !errors.Is(err, ErrAddress) {
		t.Errorf("empty bulk input write past the bank error = %v", err)
	}
	if err := r.CoilsInto(2, make([]bool, 3)); !errors.Is(err, ErrAddress) {
		t.Errorf("bulk coil read OOB error = %v", err)
	}
	if err := r.CoilsInto(5, nil); !errors.Is(err, ErrAddress) {
		t.Errorf("empty bulk coil read past the bank error = %v", err)
	}
	// A rejected write leaves the bank untouched.
	if got, _ := r.ReadInput(3, 1); got[0] != 0 {
		t.Errorf("rejected bulk write stored %d", got[0])
	}
	// Exactly filling the bank is legal.
	if err := r.SetInputs(2, []uint16{7, 8}); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.ReadInput(0, 4); got[2] != 7 || got[3] != 8 {
		t.Errorf("inputs = %v", got)
	}
	_ = r.WriteCoil(3, true)
	dst := make([]bool, 2)
	if err := r.CoilsInto(2, dst); err != nil || dst[0] || !dst[1] {
		t.Errorf("CoilsInto = %v, %v", dst, err)
	}
}

func TestRegisterFileHolding(t *testing.T) {
	r := NewRegisterFile(0, 0, 8, 0)
	if err := r.WriteHolding(2, []uint16{100, 200}); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadHolding(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 || got[1] != 200 {
		t.Errorf("holding = %v", got)
	}
}

func TestRegisterFileInputAndDiscrete(t *testing.T) {
	r := NewRegisterFile(0, 4, 0, 4)
	if err := r.SetInputs(1, []uint16{2048}); err != nil {
		t.Fatal(err)
	}
	in, err := r.ReadInput(0, 2)
	if err != nil || in[1] != 2048 {
		t.Fatalf("input read = %v, %v", in, err)
	}
	if err := r.SetDiscrete(0, true); err != nil {
		t.Fatal(err)
	}
	d, err := r.ReadDiscrete(0, 1)
	if err != nil || !d[0] {
		t.Fatalf("discrete read = %v, %v", d, err)
	}
}

func TestRegisterFileConcurrency(t *testing.T) {
	r := NewRegisterFile(16, 0, 16, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([]uint16, 8)
			dst := make([]bool, 8)
			for i := 0; i < 500; i++ {
				_ = r.WriteCoil(uint16(g), i%2 == 0)
				_, _ = r.ReadCoils(0, 16)
				_ = r.SetInputs(uint16(g), []uint16{uint16(i)})
				_, _ = r.ReadInput(0, 16)
				_ = r.SetInputs(uint16(g), vals)
				_ = r.CoilsInto(uint16(g), dst)
			}
		}(g)
	}
	wg.Wait()
}

func TestPLCScanCycle(t *testing.T) {
	p := New(6)
	var sampled, actuated int
	p.Sample = func(r *RegisterFile) { sampled++; _ = r.SetInputs(0, []uint16{42}) }
	p.Actuate = func(r *RegisterFile) { actuated++ }
	p.Tick(time.Second)
	if sampled == 0 || actuated == 0 {
		t.Fatalf("scan did not run: sampled=%d actuated=%d", sampled, actuated)
	}
	if p.Scans() == 0 {
		t.Error("scan counter not advancing")
	}
	got, err := p.Regs.ReadInput(0, 1)
	if err != nil || got[0] != 42 {
		t.Errorf("sampled register = %v, %v", got, err)
	}
}

func TestPLCTickShorterThanScan(t *testing.T) {
	p := New(1)
	ran := 0
	p.Sample = func(*RegisterFile) { ran++ }
	p.Tick(3 * time.Millisecond) // below the 10 ms scan interval
	if ran != 0 {
		t.Error("scan ran before a full interval elapsed")
	}
	p.Tick(8 * time.Millisecond)
	if ran != 1 {
		t.Errorf("scan count = %d after 11 ms, want 1", ran)
	}
}

func TestPLCScanNow(t *testing.T) {
	p := New(1)
	ran := false
	p.Actuate = func(*RegisterFile) { ran = true }
	p.ScanNow()
	if !ran {
		t.Error("ScanNow did not execute the cycle")
	}
}
