package sim_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/sim"
	"insure/internal/trace"
)

// waitGoroutines polls until the goroutine count drops back to at most
// base, failing the test if it does not within the deadline — the pool must
// not leak workers however a batch ends.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunCellsExecutesAllInOrderSlots(t *testing.T) {
	const n = 64
	got := make([]int, n)
	err := sim.RunCells(context.Background(), 4, n, func(_ context.Context, i int, a *sim.Arena) error {
		if a == nil {
			return errors.New("nil arena")
		}
		got[i] = i + 1 // positional slot: only cell i writes index i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("cell %d not executed (slot=%d)", i, v)
		}
	}
}

// TestRunCellsNestedBatch pins the help-first join: cells that fan out into
// nested batches on the same pool must complete without deadlock, with every
// leaf executed exactly once.
func TestRunCellsNestedBatch(t *testing.T) {
	const outer, inner = 6, 5
	var leaves atomic.Int64
	err := sim.RunCells(context.Background(), 3, outer, func(ctx context.Context, i int, _ *sim.Arena) error {
		// The workers argument must be ignored on the nested path — the
		// enclosing pool schedules these cells.
		return sim.RunCells(ctx, 1, inner, func(_ context.Context, j int, _ *sim.Arena) error {
			leaves.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := leaves.Load(); got != outer*inner {
		t.Fatalf("executed %d leaves, want %d", got, outer*inner)
	}
}

func TestRunCellsFirstErrorInInputOrderWins(t *testing.T) {
	errA := errors.New("cell 3 failed")
	errB := errors.New("cell 9 failed")
	// RunCells promises the first error in input order among the cells
	// that ran. A thief can take cell 9 early; if it failed before cell 3
	// started, the cancellation would keep cell 3 from running at all. So
	// cell 9 fails only once cell 3 has started.
	started3 := make(chan struct{})
	err := sim.RunCells(context.Background(), 4, 12, func(_ context.Context, i int, _ *sim.Arena) error {
		switch i {
		case 3:
			close(started3)
			return errA
		case 9:
			<-started3
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("want first-by-index error %v, got %v", errA, err)
	}
}

// shortRuns builds n fast campaign runs (trimmed operating window) so the
// scheduler tests exercise real Systems without full-day cost. onSetup, when
// non-nil, observes each cell start.
func shortRuns(n int, onSetup func(i int)) []sim.CampaignRun {
	runs := make([]sim.CampaignRun, n)
	for i := range runs {
		i := i
		runs[i] = sim.CampaignRun{
			Name:      fmt.Sprintf("cell%02d", i),
			Transient: true,
			Setup: func(a *sim.Arena) (*sim.System, sim.Manager, error) {
				if onSetup != nil {
					onSetup(i)
				}
				cfg := sim.DefaultConfig(trace.FullSystemHigh())
				cfg.Arena = a
				cfg.WindowStart = 10 * time.Hour
				cfg.WindowEnd = 10*time.Hour + 30*time.Minute
				sys, err := sim.New(cfg, sim.NewSeismicSink())
				if err != nil {
					return nil, nil, err
				}
				return sys, core.New(core.DefaultConfig(), cfg.BatteryCount), nil
			},
		}
	}
	return runs
}

// TestRunCampaignCancelMidCampaign cancels the context from inside an early
// cell: in-flight runs finish, unstarted runs are discarded with the context
// error, the partial results are dropped deterministically (nil slice), and
// the pool's workers exit.
func TestRunCampaignCancelMidCampaign(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var started atomic.Int64
	runs := shortRuns(12, func(i int) {
		if started.Add(1) == 3 {
			cancel() // mid-campaign: some cells done/running, most queued
		}
	})
	res, err := sim.RunCampaign(ctx, 2, runs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatalf("partial results must be discarded on cancellation, got %d results", len(res))
	}
	if n := started.Load(); n >= 12 {
		t.Fatalf("cancellation did not stop the campaign: all %d cells started", n)
	}
	waitGoroutines(t, base)
}

// TestRunCampaignPanicUnderStealing propagates a panic from a cell while
// other cells are being stolen by concurrent workers: the error carries the
// run name and stack, the campaign drains, and no workers leak.
func TestRunCampaignPanicUnderStealing(t *testing.T) {
	base := runtime.NumGoroutine()
	runs := shortRuns(8, nil)
	runs[5].Name = "exploder"
	runs[5].Setup = func(*sim.Arena) (*sim.System, sim.Manager, error) {
		panic("mid-campaign explosion")
	}
	res, err := sim.RunCampaign(context.Background(), 4, runs)
	if err == nil {
		t.Fatal("want error from panicking cell")
	}
	for _, want := range []string{"exploder", "mid-campaign explosion"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error should contain %q, got: %v", want, err)
		}
	}
	if res != nil {
		t.Fatalf("results must be discarded on error, got %d", len(res))
	}
	waitGoroutines(t, base)
}

// TestRunCampaignNestedInsideCell runs campaigns from within pool cells —
// the RunAllParallel shape, where an experiment's inner campaign joins the
// outer pool — and checks results stay positionally correct.
func TestRunCampaignNestedInsideCell(t *testing.T) {
	base := runtime.NumGoroutine()
	uptimes := make([][]float64, 3)
	err := sim.RunCells(context.Background(), 3, len(uptimes), func(ctx context.Context, i int, _ *sim.Arena) error {
		res, err := sim.RunCampaign(ctx, 0, shortRuns(4, nil))
		if err != nil {
			return err
		}
		u := make([]float64, len(res))
		for j, r := range res {
			u[j] = r.UptimeFrac
		}
		uptimes[i] = u
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Identical runs must yield identical results wherever they executed.
	for i := 1; i < len(uptimes); i++ {
		for j := range uptimes[i] {
			if uptimes[i][j] != uptimes[0][j] {
				t.Fatalf("cell %d run %d uptime %v != cell 0's %v", i, j, uptimes[i][j], uptimes[0][j])
			}
		}
	}
	waitGoroutines(t, base)
}
