package chaos

import (
	"testing"

	"insure/internal/diskfault"
)

// TestBitrotStormSelfHealing is the self-healing storage acceptance
// campaign: a three-day storm of torn writes, failed fsyncs, sick-disk
// windows, lost renames, and at-rest decay under both the control-plane
// state journal and the fleet's migration log and checkpoint images.
// Recovery must never resume from silently corrupted state, rollback must
// stay inside one snapshot window, every corruption of mirrored state
// must be repaired, and the guard counters must stay zero.
func TestBitrotStormSelfHealing(t *testing.T) {
	t.Parallel()
	rep, err := RunBitrotStorm(DefaultBitrotStormConfig(701))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount > 0 {
		t.Fatalf("%s\nviolations:\n%s", rep, joinViolations(rep.Violations))
	}
	if rep.Restarts == 0 || rep.Commits == 0 {
		t.Fatalf("storm exercised nothing: %s", rep)
	}
	if rep.ScrubDetected == 0 || rep.ScrubRepaired == 0 {
		t.Fatalf("storm decay never met the scrubber: %s", rep)
	}
	if rep.MaxRollback > rep.Ticks {
		t.Fatalf("nonsensical rollback: %s", rep)
	}
	pinned(t, "storm hash", rep.StormHash, map[string]uint64{"amd64": 0x8ea28d7cd3366f11})
	pinned(t, "report", rep.String(), map[string]string{"amd64": "bitrot-storm seed 701: 3 days, 4320 ticks, 4164 commits, 58 restarts (5 torn, 3 sick windows), max rollback 58, scrub 602 checked / 16 detected / 13 repaired / 0 unrepairable, fleet 5 jobs / 198.7 GB, images 1 landed / 1 repaired / 0 corrupt / 0 reshipped, double-run 0, split-brain 0, 0 violations"})
}

// TestBitrotStormRerunIsBitIdentical reruns the acceptance storm with the
// same seed: the storm hash — which folds every recovery outcome, scrub
// repair, fault count, and fleet trajectory — must match exactly, proving
// the whole fault-injection and repair path is a deterministic function
// of the seed.
func TestBitrotStormRerunIsBitIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("rerun storm skipped in -short")
	}
	cfg := DefaultBitrotStormConfig(702)
	a, err := RunBitrotStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBitrotStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.StormHash != b.StormHash {
		t.Errorf("same-seed storms diverged: %#x != %#x", a.StormHash, b.StormHash)
	}
	if a.String() != b.String() {
		t.Errorf("same-seed storm accounting diverged:\n 1st: %s\n 2nd: %s", a, b)
	}
}

// TestBitrotStormCleanDiskIsQuiet pins the harness itself: with every
// fault rate zeroed the same schedule of kills must run with no scrub
// detections, no rollback beyond the torn-kill slack, and no violations.
func TestBitrotStormCleanDiskIsQuiet(t *testing.T) {
	t.Parallel()
	cfg := DefaultBitrotStormConfig(703)
	cfg.Days = 1
	cfg.StateFaults = diskfault.Config{}
	cfg.FleetFaults = diskfault.Config{}
	rep, err := RunBitrotStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The clean run trips the "storm injected nothing" sentinels — that is
	// the point of them — and a one-day run never reaches the trough-day
	// surge that produces checkpoint images. Nothing else may fire.
	for name, n := range rep.ByInvariant {
		switch name {
		case "state-lane-faulted", "state-lane-decayed", "fleet-lane-decayed", "images-landed":
		default:
			t.Errorf("clean disk broke invariant %s %d times: %v", name, n, rep.Violations)
		}
	}
	if rep.ScrubDetected != 0 || rep.ScrubRepaired != 0 {
		t.Errorf("clean disk produced scrub repairs: %s", rep)
	}
	// Sick windows still open on a clean disk (the degraded switch is not
	// a rate), so rollback may reach the window length — one snapshot
	// window — but never past the violation bound.
	if rep.MaxRollback > cfg.SnapshotEvery+bitrotTornSlack {
		t.Errorf("clean disk rollback %d exceeds one snapshot window", rep.MaxRollback)
	}
}
