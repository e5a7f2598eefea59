package sim_test

import (
	"testing"
	"time"

	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/workload"
)

// TestBatchSinkRestoreRejectsHugeCount feeds RestoreState payloads whose
// scheduled-arrival count the payload cannot hold. Each must be rejected
// before the decode loop: an unchecked 2^60 count appends until memory runs
// out.
func TestBatchSinkRestoreRejectsHugeCount(t *testing.T) {
	hostile := func(n int) []byte {
		var e journal.Encoder
		e.U8(1)       // sink state version
		e.Int(0)      // arrival cursor
		e.Dur(0)      // last tick
		e.Int(n)      // scheduled arrivals
		e.U64(0xdead) // trailing junk
		return e.Bytes()
	}
	for name, payload := range map[string][]byte{
		"scheduled 2^60": hostile(1 << 60),
		"scheduled -1":   hostile(-1),
		"scheduled 1":    hostile(1),
	} {
		if err := sim.NewSeismicSink().RestoreState(journal.NewDecoder(payload)); err == nil {
			t.Errorf("%s: restore accepted a count the payload cannot hold", name)
		}
	}
}

// TestBatchSinkStateRoundTrip checks the bound does not reject an honest
// payload carrying in-flight arrivals.
func TestBatchSinkStateRoundTrip(t *testing.T) {
	src := sim.NewSeismicSink()
	src.Tick(8*time.Hour, time.Second, 0, 0)
	for i := 0; i < 3; i++ {
		src.Schedule(time.Duration(20+i)*time.Hour, &workload.Job{ID: uint64(100 + i), Size: 50, Remaining: 50})
	}
	var e journal.Encoder
	src.AppendState(&e)
	dst := sim.NewSeismicSink()
	if err := dst.RestoreState(journal.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.InFlight() != 3 || dst.PendingGB() != src.PendingGB() {
		t.Fatalf("restored %d in flight, %v GB pending; want 3, %v GB", dst.InFlight(), dst.PendingGB(), src.PendingGB())
	}
	var again journal.Encoder
	dst.AppendState(&again)
	if string(again.Bytes()) != string(e.Bytes()) {
		t.Fatal("re-encoded sink state differs from the original")
	}
}
