// Command perfbench is the repository's benchmark: it measures the host
// (wall-clock) cost of simulating the InSURE plant and the planes around
// it, end to end and layer by layer, and checks that the simulated outputs
// are unchanged while it does.
//
// # Running
//
// From the root of a checkout:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 1
//
// run.sh builds this package (its own module, which imports the repository
// through a replace directive) into .bench_build and runs it. --trace 0 is
// the untraced mode: every timed unit runs with no wrapper beyond what the
// end-to-end timing needs, and the JSON result carries the end-to-end
// metrics. --trace 1 is the traced mode: units alternate between traced
// and untraced (campaign batches, durable-plant and fleet-storm episodes,
// serving day pairs), traced units record spans, and the JSON result
// carries the per-layer metrics plus trace.overhead_ms, the traced minus
// the untraced median day of the same run. -cpuprofile FILE writes a
// runtime/pprof CPU profile of the timed phase. -pin FILE regenerates the
// pinned output digests (see below).
//
// A run builds its inputs five times (setup_s is the median), then runs
// timed units until the next one would likely end past --seconds. Every
// report starts with a host stamp (CPU model, NumCPU, GOMAXPROCS, Go
// version, filesystem of the state directory) and prints each metric by
// name, value, unit and sample count; the last line is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	python3 perfbench/spread.py --seeds 1-10 [--baseline FILE]
//
// runs every workload BENCHMARK.json lists untraced on ten seeds and
// prints each end-to-end metric's median and its quartile spread against
// the bound in BENCHMARK.json. baseline.json holds these figures and the
// host stamp as measured when the benchmark was defined; a speedup counts
// only against a baseline taken on the same host.
//
// # Workloads
//
// BENCHMARK.json lists fleet-storm and serving, which between them run
// every layer, with 55-second runs. On a shared two-CPU host the speed
// wanders by 20% or more over tens of seconds, so the runs of one workload
// agree within the bounds only when each run is long, and the time every
// gated run takes leaves room for two workloads of that length. campaign
// and durable-plant stay here, unlisted, for measuring a change that
// targets them: campaign isolates the tick on parallel workers, and
// durable-plant is the only run of per-pass journal commits and of
// core.Recover.
//
//	campaign       sim.RunCampaign over the grid weather {sunny, cloudy,
//	               rainy} × sink {seismic, video} × manager {InSURE with the
//	               survival ladder, unified-buffer baseline}, one batch of
//	               12 full days per Table 6 solar day, on NumCPU workers with
//	               no journal and no telemetry. The tick does nearly all the
//	               work (the PLC scan is over half of it), journal, fleet and
//	               gateway are idle, so their optimisations should not move
//	               this workload. The weather grid runs both the charge-heavy
//	               and the discharge-heavy physics.
//	durable-plant  One plant run as insure-sim -state-dir -kill-at
//	               [-torn-kill] runs it, over episodes of 4 days: a journaled
//	               InSURE manager with fsync on, telemetry attached, a scrub
//	               sweep after each day, and 4 planned kills a day (2 clean,
//	               2 torn) that drop the controller and rebuild it with
//	               core.Recover + Reconcile while the plant keeps running.
//	               The journal dominates, and it is the only workload that
//	               reads what it wrote. The tick does the campaign's work, so
//	               a tick gain shows here only diluted and a journal gain
//	               only here.
//	fleet-storm    insure-fleetd's default federation, assembled from the
//	               fleet, wan and journal constructors: 3 sites with site 0
//	               storm-parked, migration on, 30% chunk drops, 5%
//	               corruption, 1 partition a day, 40 GB jobs, day by day
//	               through Coordinator.RunDay over episodes of 4 days, with
//	               the migration log, image store and day-boundary snapshot
//	               and scrub on disk. The only run of the coordinator, the
//	               WAN model, chunk shipping and the migration log; it also
//	               ticks three plants interleaved on shared stores, so a tick
//	               change that needs one plant to stay cache-hot shows its
//	               cost here.
//	serving        In-process replay of the serving-plane stream over 2
//	               sites: a fresh fleet per day, a sunny day paired with a
//	               storm day that walks Normal→Conservative→Survival, the
//	               1:6:3 class mix, arrivals from an accumulator (no RNG) at
//	               40 QPS against 30 QPS of capacity, so admission, queueing,
//	               deadline expiry, retriage and shedding all run. One
//	               caller, closed loop. The only run of admission; net/http
//	               is left out because on two cores it measures the standard
//	               library and the scheduler and orders requests
//	               nondeterministically.
//
// The seed picks which pinned unit a run starts from (campaign: the solar
// day and the cell order; the others: the episode or day pair), and runs
// cycle through the pool from there.
//
// # End-to-end metrics
//
// Measured with tracing off:
//
//	plant_years_per_s  simulated plant time per wall second over all timed
//	                   units (campaign batches, days, serving pairs); a
//	                   plant-day is 14.5 h and a federation day counts
//	                   each site
//	day_ms_mean        mean wall time of one day of the workload's system:
//	                   a campaign cell (sim.New through its last tick), a
//	                   durable-plant day with its kills and scrub, a 3-site
//	                   federation day with snapshot and scrub, or a serving
//	                   day (the mean of a sunny/storm pair)
//	day_ms_p50         the median of the same
//	day_ms_p90         the same, printed where at least ten days lie
//	                   beyond it (campaign, and fleet-storm in a 55 s run)
//	setup_s            median of 5 set-ups: trace synthesis, kill plans,
//	                   solar-LUT and arena warm-up, state-dir creation
//	max_rss_mb         peak resident memory from getrusage
//	recovery_ms_p50/90 durable-plant: core.Recover + Reconcile
//	requests_per_s     serving: requests decided per wall second over all
//	                   day pairs
//	error_rate         failed over attempted operations
//
// BENCHMARK.json gates plant_years_per_s, day_ms_mean, setup_s and
// max_rss_mb, which exist and are non-zero on every workload; the others
// are printed on the report lines, and error_rate is the JSON's failed
// over attempted. The gated day time is a mean and the throughput a
// total because the host's speed switches between fast and slow spells
// lasting seconds: the day times of a run are bimodal, and their median
// jumps to whichever spell held the larger share of the run, so across
// runs it spreads further than the mean. A tail percentile is printed only where at least ten
// samples lie beyond it: durable-plant and serving fit well under 100
// days into a run, and their p90 would move with single days. Each report
// also states how much CPU time the hypervisor stole during the timed
// phase; on a shared host that, not the program, is what moves a slow run.
//
// # Output check
//
// Each unit reduces its simulated outputs to a digest: the per-day
// sim.Results; for durable-plant also the recovery counters and scrub
// reports; for fleet-storm the fleet Totals and scrub reports; for serving
// the gateway Stats. The digests of every unit a run can visit are pinned
// in pinned.json, regenerated with -pin only at a commit whose outputs are
// known good. An operation is a plant-day, a recovery, a fleet day or a
// request. It fails on an error return, a broken guard (fleet JobsDoubleRun
// or SplitBrain, gateway admitted-then-dropped, a journal or scrub error,
// a clean kill whose recovered state is not the state the controller held
// when it was dropped) or a digest mismatch, which fails every operation
// the digest covers. A designed shed is not a failure. The plant model is
// not validated against hardware; the benchmark gives no accuracy figure.
//
// # Per-layer metrics
//
// Spans are taken in this package only, through public APIs and hooks:
// sim.Manager and sim.Sink wrappers, plc.PLC.Sample and Actuate,
// sim.System.SetTickHook, a span-recording journal.FS passed to
// journal.OpenFS, fleet.Config.LogFS and fleet.NewImageStore, a
// gateway.Plant wrapper, fleet.Config.Prepare and Abort, and direct timing
// of core.Recover, Manager.Reconcile, Scrubber.RunOnce, Coordinator.RunDay,
// Gateway.Offer and Gateway.Advance. BENCHMARK.json lists the layer
// metrics every workload has (sim, plc, core control, workload, go, and
// trace.overhead_ms); the metrics of core recovery, journal, fleet and
// gateway are printed only on the workloads that run those layers. Notes
// on a few:
//
//   - sim.tick_* runs from one tick hook to the next boundary on the same
//     goroutine; tick_self subtracts the PLC, manager and sink spans.
//   - core.control_* excludes the journal commit, which is split into
//     journal.append_pass_* and, when the pass renamed, journal.snapshot_pass_*.
//     core.Recover reopens its store on the real disk, so the traced run
//     reopens it through the span-recording FS.
//   - sim.allocs_per_tick and bytes_per_tick are process-wide heap
//     allocations over the tick loops divided by their ticks, so they
//     include what else runs there (recoveries, coordinator passes, the
//     gateway, and on campaign the other workers' sim.New).
//   - fleet.pass_us_* is estimated: the Abort-poll gap after a pass tick
//     minus the median gap after an ordinary tick.
//   - fleet.chunks_attempted and chunk_goodput_ratio come from the fleet
//     Totals: failed chunks, and goodput at the 250 MB default chunk.
//
// # Which layer metric should move which end-to-end metric
//
//	layer metrics                              end-to-end          workload                 elsewhere
//	plc.*, sim.tick_*, core.control_*,         plant_years_per_s,  campaign, fleet-storm    diluted on serving and
//	workload.sink_*                            day_ms_*                                     durable-plant
//	journal.*pass*, journal.fsync_*,           day_ms_*            durable-plant            none on campaign and
//	journal.bytes_written                                                                   serving; small on fleet-storm
//	core.recover_*, core.reconcile_*           recovery_ms_*       durable-plant            none
//	journal.scrub_*                            day_ms_*            durable-plant,           none
//	                                                               fleet-storm
//	fleet.*                                    day_ms_*            fleet-storm (small)      none
//	gateway.*                                  requests_per_s      serving                  none
//	sim.new_ms_p50, sim.allocs_per_tick, go.*  setup_s, max_rss_mb, campaign                the tick itself must
//	                                           day_ms_*                                     not start allocating
package main
