package core

import (
	"time"

	"insure/internal/sim"
)

// This file is the manager's external energy-outlook surface: the small,
// read-only view of the plant's live energy state that consumers outside
// the control loop steer by. The fleet coordinator samples pieces of it to
// pick migration donors; the serving gateway (internal/gateway) admits
// interactive requests against it. Everything here reads the same
// transduced estimates the controller itself plans with, so an admission
// decision and a ladder decision can never disagree about what the plant
// knows.

// Outlook is a point-in-time summary of the plant's energy state.
type Outlook struct {
	// Mode is the survivability rung (ModeNormal when the ladder is off).
	Mode OpMode
	// SoC is the mean transduced state of charge over the non-quarantined
	// units — the same aggregate the ladder's thresholds test.
	SoC float64
	// SupplyW is the conservative renewable supply forecast for right now.
	SupplyW float64
	// DemandW is the cluster's present draw.
	DemandW float64
}

// MeanSoC returns the mean transduced SoC over the bank's non-quarantined
// units. This is the ladder's own aggregate (surviveEvaluate computes the
// identical mean), exported so admission control outside the control loop
// shares the controller's view of the buffer.
func (m *Manager) MeanSoC(sys *sim.System) float64 {
	bp := sys.Config().BatteryParams
	var sum float64
	n := 0
	for i := range m.groups {
		if m.watch.quarantined[i] {
			continue
		}
		sum += estSoC(sys, &bp, i)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ForecastSupplyW is the conservative renewable supply forecast at sim time
// at — the same estimator the survivability ladder plans against. Before
// the estimator has observed anything (or when forecasting is disabled) it
// falls back to the fixed 25% cloud margin on the present supply, matching
// projectDepletion's fallback.
func (m *Manager) ForecastSupplyW(sys *sim.System, at time.Duration) float64 {
	if m.fc != nil {
		return float64(m.fc.ConservativePredict(at, 1))
	}
	return 0.75 * float64(sys.SolarNow())
}

// Outlook assembles the full energy picture at now.
func (m *Manager) Outlook(sys *sim.System, now time.Duration) Outlook {
	return Outlook{
		Mode:    m.Mode(),
		SoC:     m.MeanSoC(sys),
		SupplyW: m.ForecastSupplyW(sys, now),
		DemandW: float64(sys.Cluster.Power()),
	}
}
