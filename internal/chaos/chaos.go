// Package chaos is the randomized crash-campaign harness for the InSURE
// control plane.
//
// The journal and recovery layers (internal/journal, internal/core) are
// each proven by targeted tests; this package proves them *together*,
// under adversarial schedules no one sat down and wrote: controller
// processes killed clean and killed mid-write, fieldbus partitions between
// the coordination node and the control panel, and the hardware fault
// repertoire of internal/faults — all drawn from a seeded PRNG so every
// campaign is exactly reproducible from its seed.
//
// A campaign runs the same plant twice: a reference day that suffers only
// the hardware faults, and a chaos day that additionally loses its
// controller and its fieldbus over and over. Per-tick invariants (no
// shorted relay topology, SoC in bounds, no recovery-induced brownout)
// are checked on the chaos day; at the end the two trajectories are
// compared for convergence. Rerunning a campaign with the same seed must
// reproduce the chaos trajectory bit-for-bit — the recovery path is as
// deterministic as the happy path.
//
// Every campaign draws its randomness under the seeding contract
// documented in internal/seed, so a seed pins the whole campaign.
//
// The campaigns share their verdict (named invariants with exact
// per-name counts), their trajectory digest, and their plant fixtures;
// each runner keeps only the machinery it alone drives.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"insure/internal/battery"
	"insure/internal/core"
	"insure/internal/faults"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

// Kind classifies one scheduled chaos event.
type Kind int

const (
	// KillClean hard-stops the controller between journal commits: the
	// journal is intact and recovery must be invisible in the trajectory.
	KillClean Kind = iota
	// KillTorn hard-stops the controller mid-write: the journal tail is
	// torn, recovery restores a stale pass, and reconciliation must
	// re-drive the plant back under the journal's intent.
	KillTorn
	// Partition severs the fieldbus between the coordination node and the
	// control panel for Dur; the manager must ride it out on local
	// fallbacks and reconverge when the link heals.
	Partition
	// SensorFault injects a transducer failure (stick or drift) from
	// internal/faults.
	SensorFault
	// HardwareFault injects a destructive plant failure (battery capacity
	// loss, relay stuck open, relay welded closed) from internal/faults.
	HardwareFault
)

func (k Kind) String() string {
	switch k {
	case KillClean:
		return "kill-clean"
	case KillTorn:
		return "kill-torn"
	case Partition:
		return "partition"
	case SensorFault:
		return "sensor-fault"
	case HardwareFault:
		return "hardware-fault"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled chaos event.
type Event struct {
	// At is the time-of-day the event lands.
	At time.Duration
	// Kind selects the failure mechanism.
	Kind Kind
	// Dur is how long a Partition lasts (zero for other kinds).
	Dur time.Duration
	// Inject is the concrete plant fault for SensorFault/HardwareFault
	// events, ready for a faults.Plan. Zero-valued for other kinds.
	Inject faults.Event
}

func (e Event) String() string {
	switch e.Kind {
	case Partition:
		return fmt.Sprintf("%v@%v+%v", e.Kind, e.At, e.Dur)
	case SensorFault, HardwareFault:
		return fmt.Sprintf("%v@%v(%v)", e.Kind, e.At, e.Inject)
	default:
		return fmt.Sprintf("%v@%v", e.Kind, e.At)
	}
}

// Config shapes a campaign. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// Seed drives every random choice in the campaign. Two campaigns with
	// the same Config produce bit-identical plans and trajectories.
	Seed int64
	// Events is how many chaos events the plan holds.
	Events int
	// From/To bound event times within the operating day. Events are
	// spread over evenly-sized slots with jittered offsets, keeping
	// consecutive events at least two control periods apart so every
	// recovery has committed fresh state before the next hit.
	From, To time.Duration
	// Batteries and Servers size the plant.
	Batteries int
	Servers   int
	// Remote routes the chaos run's control plane over Modbus TCP through
	// a faults.FlakyProxy, which is what makes Partition events real.
	// Without Remote the partition weight is folded into the kill kinds.
	Remote bool
	// StateDir is where the chaos run journals its control state. Required.
	StateDir string
}

// DefaultConfig is a mid-sized campaign on the paper's prototype plant.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:      seed,
		Events:    60,
		From:      8*time.Hour + 15*time.Minute,
		To:        19*time.Hour + 15*time.Minute,
		Batteries: 6,
		Servers:   4,
	}
}

// minEventGap is the clearance kept on both sides of an event's slot, so
// two consecutive events are always at least 2×minEventGap (= two 30 s
// control periods) apart.
const minEventGap = 30 * time.Second

// maxHardwareFaults caps destructive plant damage per campaign: beyond a
// handful of dead batteries and seized relays the day is lost to physics,
// not to the control plane under test.
const maxHardwareFaults = 4

// Plan expands a Config into its event schedule. All randomness is
// consumed here, up front, from a PRNG seeded with cfg.Seed — the
// campaign itself is then a deterministic replay of the plan.
func Plan(cfg Config) ([]Event, error) {
	if cfg.Events <= 0 {
		return nil, fmt.Errorf("chaos: Events must be positive")
	}
	span := cfg.To - cfg.From
	stride := span / time.Duration(cfg.Events)
	if stride < 3*minEventGap {
		return nil, fmt.Errorf("chaos: %d events over %v leaves %v between events; need at least %v",
			cfg.Events, span, stride, 3*minEventGap)
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	events := make([]Event, 0, cfg.Events)
	hardware := 0
	for i := 0; i < cfg.Events; i++ {
		// Fixed number of draws per event, whatever kind it rolls, so the
		// random stream layout never depends on earlier outcomes.
		jit := time.Duration(rnd.Int63n(int64(stride - 2*minEventGap)))
		roll := rnd.Float64()
		unit := rnd.Intn(cfg.Batteries)
		mag := rnd.Float64()
		durRoll := rnd.Int63n(int64(90 * time.Second))
		sub := rnd.Intn(3)

		e := Event{At: cfg.From + time.Duration(i)*stride + minEventGap + jit}
		switch {
		case roll < 0.30:
			e.Kind = KillClean
		case roll < 0.45:
			e.Kind = KillTorn
		case roll < 0.70:
			if cfg.Remote {
				e.Kind = Partition
				e.Dur = 45*time.Second + time.Duration(durRoll)
			} else if roll < 0.60 {
				e.Kind = KillClean // no fieldbus to cut: fold into kills
			} else {
				e.Kind = KillTorn
			}
		case roll < 0.90 || hardware >= maxHardwareFaults:
			e.Kind = SensorFault
			if mag < 0.5 {
				e.Inject = faults.Event{At: e.At, Kind: faults.SensorStick, Unit: unit}
			} else {
				e.Inject = faults.Event{At: e.At, Kind: faults.SensorDrift, Unit: unit,
					Magnitude: 0.1 + 0.8*(mag-0.5)}
			}
		default:
			e.Kind = HardwareFault
			hardware++
			switch sub {
			case 0:
				e.Inject = faults.Event{At: e.At, Kind: faults.BatteryFail, Unit: unit,
					Magnitude: 0.2 + 0.3*mag}
			case 1:
				e.Inject = faults.Event{At: e.At, Kind: faults.RelayStuckOpen, Unit: unit}
			default:
				e.Inject = faults.Event{At: e.At, Kind: faults.RelayWeldClosed, Unit: unit}
			}
		}
		events = append(events, e)
	}
	return events, nil
}

// faultPlanOf collects the plant-fault events of a plan into the schedule
// internal/faults understands. Both the reference run and the chaos run
// inject this same plan, so hardware damage never explains a divergence.
func faultPlanOf(events []Event) faults.Plan {
	var p faults.Plan
	for _, e := range events {
		if e.Kind == SensorFault || e.Kind == HardwareFault {
			p = append(p, e.Inject)
		}
	}
	return p
}

// maxViolationDetail caps how many violations keep their full text; the
// counts are always exact.
const maxViolationDetail = 16

// verdict is the invariant ledger every campaign report embeds: an exact
// count overall and per named invariant, plus the first
// maxViolationDetail messages in full.
type verdict struct {
	ViolationCount int
	Violations     []string
	// ByInvariant counts violations per invariant name.
	ByInvariant map[string]int
}

// violate records one breach of the invariant called name.
func (v *verdict) violate(name, format string, args ...any) {
	v.note(name, 1)
	if len(v.Violations) < maxViolationDetail {
		v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
	}
}

// merge folds another ledger into v, keeping the detail cap.
func (v *verdict) merge(o *verdict) {
	for name, n := range o.ByInvariant {
		v.note(name, n)
	}
	room := maxViolationDetail - len(v.Violations)
	v.Violations = append(v.Violations, o.Violations[:min(room, len(o.Violations))]...)
}

func (v *verdict) note(name string, n int) {
	if v.ByInvariant == nil {
		v.ByInvariant = map[string]int{}
	}
	v.ByInvariant[name] += n
	v.ViolationCount += n
}

// digest is the campaigns' one hash. str and word feed bytes FNV-1a style
// (str starts a zero digest from the offset basis); chain folds a finished
// sub-digest in, so two runs agree only if every day and every site
// agreed, in the same order.
type digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (d *digest) str(s string) {
	if *d == 0 {
		*d = fnvOffset
	}
	for i := 0; i < len(s); i++ {
		*d = (*d ^ digest(s[i])) * fnvPrime
	}
}

func (d *digest) word(v uint64) {
	for i := 0; i < 8; i++ {
		*d = (*d ^ digest(v>>(8*i)&0xff)) * fnvPrime
	}
}

func (d *digest) chain(sub uint64) { *d = *d*fnvPrime ^ digest(sub) }

// hashFrames digests a recorded trajectory: tick time, stored energy,
// running VMs, and every unit's SoC and relay mode. Two campaigns agree on
// this hash only if the plant moved identically.
func hashFrames(frames []sim.Frame) uint64 {
	d := digest(fnvOffset)
	for _, f := range frames {
		d.word(uint64(f.At))
		d.word(math.Float64bits(float64(f.StoredWh)))
		d.word(uint64(f.RunningVM))
		for i := range f.SoCs {
			d.word(math.Float64bits(f.SoCs[i]))
			d.word(uint64(f.Modes[i]))
		}
	}
	return uint64(d)
}

// armFaults injects plan into sys's bank, relays and probes as the day
// ticks, then runs probe (when set) on every tick.
func armFaults(sys *sim.System, plan faults.Plan, probe func(time.Duration)) {
	inj := faults.NewInjector(plan, faults.Target{Bank: sys.Bank, Fabric: sys.Fabric, Probes: sys.Probes})
	sys.SetTickHook(func(tod time.Duration) {
		inj.Tick(tod)
		if probe != nil {
			probe(tod)
		}
	})
}

// emergencyWatch checks one plant-day's emergency contract tick by tick:
// every ladder move is between adjacent rungs (moves happen only inside a
// control pass, so per-tick sampling sees each one), and, with noLoss
// set, no VM state is ever lost to a power cut.
type emergencyWatch struct {
	where  string // the plant-day, prefixed to every violation
	mode   core.OpMode
	lost   int
	noLoss bool
}

func (w *emergencyWatch) check(v *verdict, mode core.OpMode, sys *sim.System, tod time.Duration) {
	if mode != w.mode {
		if !core.LadderAdjacent(w.mode, mode) {
			v.violate("ladder-adjacent", "%s: illegal ladder move %s -> %s at %v", w.where, w.mode, mode, tod)
		}
		w.mode = mode
	}
	if !w.noLoss {
		return
	}
	if l := sys.Cluster.VMsLost(); l > w.lost {
		v.violate("no-vms-lost", "%s: %d VMs lost uncheckpointed at %v", w.where, l-w.lost, tod)
		w.lost = l
	}
}

// plantConfig is one day of a prototype plant on tr, recording every
// minute. A non-nil bank carries its charge across days.
func plantConfig(tr *trace.Trace, batteries, servers int, bank *battery.Bank) sim.Config {
	scfg := sim.DefaultConfig(tr)
	scfg.BatteryCount = batteries
	scfg.ServerCount = servers
	scfg.RecordEvery = time.Minute
	scfg.Bank = bank
	return scfg
}

// controller is a journaled control process a campaign kills and
// recovers while the plant it drives keeps running on physics.
type controller struct {
	cfg           core.Config
	batteries     int
	dir           string
	reg           *telemetry.Registry
	snapshotEvery int
	mgr           *core.Manager
	store         *journal.Store
}

// journaled wraps the live manager so every control pass commits.
func (c *controller) journaled() *core.JournaledManager {
	jm := core.NewJournaled(c.mgr, c.store)
	jm.SnapshotEvery = c.snapshotEvery
	return jm
}

// restart kills the process at tod — only the journal in dir survives,
// its tail chopped first when torn — then recovers the control state,
// re-attaches telemetry, re-drives sys to the recovered intent, and
// returns the new process's journaled manager.
func (c *controller) restart(sys *sim.System, tod time.Duration, torn bool) (*core.JournaledManager, error) {
	if err := c.store.Close(); err != nil {
		return nil, err
	}
	if torn {
		if err := journal.TruncateTail(c.dir, tornTailBytes); err != nil {
			return nil, err
		}
	}
	mgr, store, err := core.Recover(c.cfg, c.batteries, c.dir)
	if err != nil {
		return nil, fmt.Errorf("chaos: recovery at %v: %w", tod, err)
	}
	c.mgr, c.store = mgr, store
	mgr.AttachTelemetry(c.reg)
	mgr.Reconcile(sys, tod)
	return c.journaled(), nil
}
