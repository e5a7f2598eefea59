package chaos

import "testing"

// TestVerdictMergeKeepsCapAndCounts merges a twin run's ledger the way
// RunStorm does: counts add exactly, per invariant, while the kept
// messages never exceed the detail cap.
func TestVerdictMergeKeepsCapAndCounts(t *testing.T) {
	var a, b verdict
	for i := 0; i < 10; i++ {
		a.violate("ladder-adjacent", "a %d", i)
		b.violate("no-vms-lost", "b %d", i)
	}
	b.violate("ladder-adjacent", "b extra")
	a.merge(&b)
	if a.ViolationCount != 21 {
		t.Errorf("ViolationCount = %d, want 21", a.ViolationCount)
	}
	if got := a.ByInvariant; got["ladder-adjacent"] != 11 || got["no-vms-lost"] != 10 {
		t.Errorf("ByInvariant = %v", got)
	}
	if len(a.Violations) != maxViolationDetail || a.Violations[10] != "b 0" {
		t.Errorf("kept %d messages (want %d, twin's first at 10): %q", len(a.Violations), maxViolationDetail, a.Violations)
	}
}
