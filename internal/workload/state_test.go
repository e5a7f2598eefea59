package workload

import (
	"testing"
	"time"

	"insure/internal/journal"
)

// TestBatchQueueRestoreRejectsHugeCount is the regression for a 41-byte
// payload whose pending-job count decodes to 2^60: restore used to loop
// on it, allocating until it hung or ran out of memory. Either count
// (pending or completed) larger than the payload can hold must fail fast.
func TestBatchQueueRestoreRejectsHugeCount(t *testing.T) {
	hostile := func(pending, completed int) []byte {
		var e journal.Encoder
		e.U8(batchQueueStateVersion)
		e.U64(7)   // idBase
		e.U64(3)   // idSeq
		e.F64(1.5) // processed
		e.Int(pending)
		if completed >= 0 {
			e.Int(completed)
		} else {
			e.U64(0xdeadbeefdeadbeef) // trailing junk
		}
		return e.Bytes()
	}
	cases := map[string][]byte{
		"pending 2^60":   hostile(1<<60, -1),
		"pending -1":     hostile(-1, -1),
		"completed 2^60": hostile(0, 1<<60),
	}
	if n := len(cases["pending 2^60"]); n != 41 {
		t.Fatalf("reproducer is %d bytes, want 41", n)
	}
	for name, payload := range cases {
		q := NewBatchQueue(Seismic())
		if err := q.RestoreState(journal.NewDecoder(payload)); err == nil {
			t.Errorf("%s: restore accepted a count the payload cannot hold", name)
		}
	}
}

// TestBatchQueueStateRoundTrip checks the bound does not reject honest
// payloads, including the tightest one: the completed list ends the
// payload, so its jobs fill the remaining bytes exactly.
func TestBatchQueueStateRoundTrip(t *testing.T) {
	q := NewBatchQueue(Seismic())
	for i := 0; i < 3; i++ {
		q.Add(time.Duration(i)*time.Minute, float64(10+i))
	}
	q.Tick(time.Hour, 4, 4)
	if len(q.Completed()) == 0 || len(q.Pending()) == 0 {
		t.Fatalf("fixture needs pending and completed jobs: %d/%d", len(q.Pending()), len(q.Completed()))
	}
	var e journal.Encoder
	q.AppendState(&e)
	r := NewBatchQueue(Seismic())
	if err := r.RestoreState(journal.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	var e2 journal.Encoder
	r.AppendState(&e2)
	if string(e.Bytes()) != string(e2.Bytes()) {
		t.Fatal("restored queue re-encodes differently")
	}
}
