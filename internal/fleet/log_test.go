package fleet

import (
	"testing"

	"insure/internal/journal"
)

// TestDecodeRecordRejectsHugeManifest feeds v2 migration records whose
// manifest count the record cannot hold. Each must be rejected before the
// decode loop: an unchecked 2^60 count appends until memory runs out.
func TestDecodeRecordRejectsHugeManifest(t *testing.T) {
	hostile := func(n int) []byte {
		var rec, tail journal.Encoder
		encodeRecord(&rec, Record{Kind: RecJob, To: 1, Jobs: 1, GB: 5})
		b := rec.Bytes()
		b = b[:len(b)-8] // drop the empty manifest's count
		tail.Int(n)
		tail.U64(0xdead) // trailing junk
		return append(b, tail.Bytes()...)
	}
	for name, payload := range map[string][]byte{
		"manifest 2^60": hostile(1 << 60),
		"manifest -1":   hostile(-1),
		"manifest 1":    hostile(1),
	} {
		if _, err := decodeRecord(payload); err == nil {
			t.Errorf("%s: decode accepted a count the record cannot hold", name)
		}
	}
}

// TestDecodeRecordManifestRoundTrip checks the bound does not reject an
// honest record, whose manifest fills the rest of the payload exactly.
func TestDecodeRecordManifestRoundTrip(t *testing.T) {
	r := Record{Kind: RecJob, To: 1, Jobs: 2, GB: 9, Manifest: []JobRef{
		{ID: 1, Size: 4, Remaining: 3, Arrived: 7, Origin: 0},
		{ID: 2, Size: 5, Remaining: 5, Arrived: 8, Origin: 2},
	}}
	var e journal.Encoder
	encodeRecord(&e, r)
	got, err := decodeRecord(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Manifest) != 2 || got.Manifest[1] != r.Manifest[1] {
		t.Fatalf("manifest = %+v, want %+v", got.Manifest, r.Manifest)
	}
}
