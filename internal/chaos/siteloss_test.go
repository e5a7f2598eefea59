package chaos

import (
	"testing"
	"time"
)

// siteLossConfig is the federated storm over ideal links: the site-loss
// acceptance campaign, three sites with a three-day storm over site 0.
func siteLossConfig(seed int64) WANStormConfig {
	cfg := DefaultWANStormConfig(seed)
	cfg.DropRate, cfg.CorruptRate = 0, 0
	return cfg
}

// TestSiteLossMigrationHandsOffStorm is the federation acceptance bar: a
// three-day storm parked over one of three sites, migration armed. The
// darkened site must hand its deferred batch work to the sunny sites, the
// sunny sites must finish it, and no VM anywhere may be lost
// uncheckpointed.
func TestSiteLossMigrationHandsOffStorm(t *testing.T) {
	t.Parallel()
	cfg := siteLossConfig(2015)
	cfg.Migration = true
	cfg.LogDir = t.TempDir()
	rep, err := RunWANStorm(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	if rep.ViolationCount > 0 {
		t.Errorf("%v\nfirst violations: %v", rep, rep.Violations)
	}
	if rep.VMsLost != 0 {
		t.Errorf("seed %d: federated storm lost %d VMs with migration armed", cfg.Seed, rep.VMsLost)
	}
	if rep.MigratedGB <= 0 || rep.Migrations == 0 {
		t.Errorf("seed %d: storm site migrated nothing; darken the trace", cfg.Seed)
	}
	if rep.StormBacklogGB > 0 {
		t.Errorf("seed %d: storm site ended with %.1f GB deferred", cfg.Seed, rep.StormBacklogGB)
	}
	if rep.CompletedAwayGB <= 0 {
		t.Errorf("seed %d: surplus sites completed none of the migrated work", cfg.Seed)
	}
	pinned(t, "trajectory hash", rep.TrajectoryHash, map[string]uint64{"amd64": 0x5c074601fe69d6b7})
}

// TestSiteLossBaselineRecordsDamage drives the identical fleet and weather
// with migration off: the pre-federation plants. The storm must cost the
// darkened site real VM losses, or the migration comparison proves
// nothing.
func TestSiteLossBaselineRecordsDamage(t *testing.T) {
	t.Parallel()
	cfg := siteLossConfig(2015)
	rep, err := RunWANStorm(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	if rep.VMsLost == 0 {
		t.Errorf("seed %d: baseline fleet lost no VMs; darken the trace", cfg.Seed)
	}
	if rep.Migrations != 0 || rep.MigratedGB != 0 {
		t.Errorf("seed %d: migration-off fleet reported shipments: %v", cfg.Seed, rep)
	}
}

// TestSiteLossDeterministic reruns the migration campaign with the same
// seed: the whole fleet — every plant trajectory and every shipment — must
// reproduce exactly.
func TestSiteLossDeterministic(t *testing.T) {
	t.Parallel()
	cfg := siteLossConfig(7)
	cfg.Migration = true
	a, err := RunWANStorm(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	b, err := RunWANStorm(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	if a.TrajectoryHash != b.TrajectoryHash {
		t.Errorf("seed %d: trajectories diverged: %x vs %x", cfg.Seed, a.TrajectoryHash, b.TrajectoryHash)
	}
	if a.String() != b.String() {
		t.Errorf("seed %d: reports diverged:\n 1st: %v\n 2nd: %v", cfg.Seed, a, b)
	}
}

// TestSiteLossHardFailure turns the storm into a total site loss on the
// final day: the storm site dies at 15h with its in-flight resources, the
// survivors keep running, and the loss is journaled.
func TestSiteLossHardFailure(t *testing.T) {
	t.Parallel()
	cfg := siteLossConfig(2015)
	cfg.Migration = true
	cfg.FailAt = time.Duration(cfg.Days-1)*24*time.Hour + 15*time.Hour
	cfg.LogDir = t.TempDir()
	rep, err := RunWANStorm(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	if rep.ViolationCount > 0 {
		t.Errorf("%v\nfirst violations: %v", rep, rep.Violations)
	}
	if rep.SitesLost != 1 {
		t.Errorf("seed %d: SitesLost = %d, want 1", cfg.Seed, rep.SitesLost)
	}
	if rep.MigratedGB <= 0 {
		t.Errorf("seed %d: nothing migrated before the site died", cfg.Seed)
	}
}
