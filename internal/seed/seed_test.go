package seed

import "testing"

// TestMix64MatchesSplitMix64 pins Mix64 to the reference SplitMix64
// stream seeded at zero: every seeded fault fate in the repo hashes
// through it, so any drift would silently reshuffle every campaign.
func TestMix64MatchesSplitMix64(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := Mix64(uint64(i) * Gamma); got != w {
			t.Errorf("stream[%d] = %#x, want %#x", i, got, w)
		}
	}
}
