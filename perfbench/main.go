package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median, so one slow filesystem call does not move it.
const setupRepeats = 5

// hoursPerYear matches insure-bench's campaign-scaling arithmetic.
const hoursPerYear = 8766.0

// bench is one workload. setup builds every input the timed phase needs;
// unit runs the k-th timed unit (a campaign batch, or one day) and records
// into rs; poolUnits is how many units visit every pinned output once.
type bench interface {
	setup() error
	unit(k int, rs *runStats) error
	poolUnits() int
	close() error
}

type workloadDef struct {
	name string
	make func(o *options) bench
}

var workloads = []workloadDef{
	{"campaign", func(o *options) bench { return &campaignBench{o: o} }},
	{"durable-plant", func(o *options) bench { return &durableBench{o: o} }},
	{"fleet-storm", func(o *options) bench { return &fleetBench{o: o} }},
	{"serving", func(o *options) bench { return &servingBench{o: o} }},
}

type options struct {
	seed    int64
	traced  bool   // --trace 1: alternate traced and untraced units
	workdir string // state directories live here
}

// runStats accumulates one run. Units run with tracing off feed the
// end-to-end figures; traced units feed lay and the per-layer figures.
type runStats struct {
	dayMs       samples // untraced units
	tracedDayMs samples
	recoveryMs  samples // untraced units, durable-plant
	// Totals over the untraced units, for the throughputs.
	units      int
	plantHours float64
	wallMs     float64
	requests   float64 // decided requests, serving

	attempted int64
	failed    int64

	lay tracer

	// Output-derived layer counts of traced units.
	chunkFails     int64
	goodputGB      float64
	retransmitGB   float64
	migrations     int64
	imagesVerified int64
	gwRequests     int64
	gwServed       int64
	gwShed         int64
	gwQueued       int64

	pins   map[string]string // expected digests
	pinOut map[string]string // non-nil while regenerating pins
}

// check compares a unit's output digest with the pinned one. ops is the
// number of operations the digest covers; on a mismatch all of them fail.
// It returns whether the output matched.
func (rs *runStats) check(key, digest string, ops int64) bool {
	rs.attempted += ops
	if rs.pinOut != nil {
		rs.pinOut[key] = digest
		return true
	}
	if rs.pins[key] != digest {
		rs.failed += ops
		return false
	}
	return true
}

// fail records ops that failed outright (an error return or broken guard).
func (rs *runStats) fail(ops int64) {
	rs.attempted += ops
	rs.failed += ops
}

// day records one timed day that simulated plantHours of plant time.
func (rs *runStats) day(ms, plantHours float64, traced bool) {
	if traced {
		rs.tracedDayMs = append(rs.tracedDayMs, ms)
		return
	}
	rs.dayMs = append(rs.dayMs, ms)
	rs.rate(plantHours, ms)
}

// rate records an untraced unit of wallMs that simulated plantHours.
// Throughput is the total over the run, not a median of per-unit rates: on
// a shared host the speed wanders for seconds at a time, and the mean of
// every unit averages that out better than the middle one does.
func (rs *runStats) rate(plantHours, wallMs float64) {
	rs.units++
	rs.plantHours += plantHours
	rs.wallMs += wallMs
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name       = flag.String("workload", "", "workload: campaign, durable-plant, fleet-storm or serving")
		seed       = flag.Int64("seed", 1, "input seed")
		seconds    = flag.Float64("seconds", 10, "length of the timed phase")
		traceFlag  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the timed phase to this file")
		workdir    = flag.String("workdir", ".bench_build/work", "directory for state directories")
		pinOut     = flag.String("pin", "", "run every pinned unit of every workload once and write the digests to this file")
	)
	flag.Parse()
	if *pinOut != "" {
		if err := writePins(*pinOut, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload campaign|durable-plant|fleet-storm|serving, --trace 0|1, --seconds >= 0")
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o := &options{seed: *seed, traced: *traceFlag == 1, workdir: filepath.Join(*workdir, def.name)}
	rep, err := measure(def, o, time.Duration(*seconds*float64(time.Second)), pins, *cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(os.Stdout, def.name, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report is what one run prints.
type report struct {
	rs      *runStats
	setupS  samples
	maxRSS  float64
	gcCount uint32
	gcPause time.Duration
	stamp   hostStamp
	timedS  float64 // length of the timed phase
	stealS  float64 // CPU time the hypervisor took from this machine meanwhile
}

// measure builds the workload setupRepeats times, then runs timed units
// for about d (at least one unit).
func measure(def *workloadDef, o *options, d time.Duration, pins map[string]map[string]string, cpuprofile string) (*report, error) {
	rep := &report{rs: &runStats{pins: pins[def.name]}}
	b, err := setUp(def, o, &rep.setupS)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rep.stamp = stampHost(o.workdir)
	runtime.GC()
	var prof *os.File
	if cpuprofile != "" {
		if prof, err = os.Create(cpuprofile); err != nil {
			return nil, err
		}
		defer prof.Close() // error path only; success checks Close below
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// Units run until the next one would likely end past d, judged by the
	// median unit so far, so a run measures about d and no more.
	steal0 := stealSeconds()
	start := time.Now()
	var took samples
	for k := 0; ; k++ {
		u0 := time.Now()
		if err := b.unit(k, rep.rs); err != nil {
			return nil, err
		}
		took = append(took, time.Since(u0).Seconds())
		if time.Since(start).Seconds()+took.quantile(0.5) > d.Seconds() {
			break
		}
	}
	rep.timedS = time.Since(start).Seconds()
	rep.stealS = stealSeconds() - steal0
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	rep.gcCount = m1.NumGC - m0.NumGC
	rep.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rep.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return rep, b.close()
}

// setUp builds the workload setupRepeats times, timing each build, and
// returns the last one.
func setUp(def *workloadDef, o *options, times *samples) (bench, error) {
	var b bench
	for r := 0; r < setupRepeats; r++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := os.RemoveAll(o.workdir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(o.workdir, 0o755); err != nil {
			return nil, err
		}
		b = def.make(o)
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("%s setup: %w", def.name, err)
		}
		*times = append(*times, time.Since(t0).Seconds())
	}
	return b, nil
}

// metric is one printed figure. n is the sample count behind it (0 for a
// plain count); note qualifies it on the human-readable line.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report and, as the last line, the JSON
// result. The JSON carries the metrics BENCHMARK.json lists for the mode,
// which every workload has; the figures only some workloads have appear
// on the report lines only.
func (rep *report) print(w io.Writer, name string, o *options) error {
	rs := rep.rs
	bw := bufio.NewWriter(w)
	mode := "untraced"
	if o.traced {
		mode = "traced"
	}
	fmt.Fprintf(bw, "# perfbench %s seed=%d mode=%s\n", name, o.seed, mode)
	fmt.Fprintf(bw, "# host %s\n", rep.stamp)
	fmt.Fprintf(bw, "# timed phase %.1f s; CPU time stolen by the hypervisor meanwhile %.2f s (all CPUs)\n",
		rep.timedS, rep.stealS)
	fmt.Fprintln(bw, "# The plant model is not validated against hardware; no accuracy figure is given.")
	fmt.Fprintln(bw, "# Outputs are checked against digests pinned at the seed commit (perfbench/pinned.json).")
	var gated, extra []metric
	if o.traced {
		gated, extra = layerMetrics(rep)
	} else {
		gated, extra = endToEndMetrics(rep, name)
	}
	errRate := 0.0
	if rs.attempted > 0 {
		errRate = float64(rs.failed) / float64(rs.attempted)
	}
	extra = append(extra, metric{name: "error_rate", value: errRate, unit: "fraction", n: int(rs.attempted),
		note: fmt.Sprintf("%d of %d operations failed", rs.failed, rs.attempted)})
	res := jsonResult{
		Correct:   rs.failed == 0 && rs.attempted > 0,
		Attempted: rs.attempted,
		Failed:    rs.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, set := range [][]metric{gated, extra} {
		for _, m := range set {
			line := fmt.Sprintf("%-32s %14.6g %-14s", m.name, m.value, m.unit)
			if m.n > 0 {
				line += fmt.Sprintf(" n=%d", m.n)
			}
			if m.note != "" {
				line += "  (" + m.note + ")"
			}
			fmt.Fprintln(bw, strings.TrimRight(line, " "))
		}
	}
	for _, m := range gated {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(bw, string(js))
	return bw.Flush()
}

// endToEndMetrics lists the end-to-end figures of an untraced run. gated
// holds the ones every workload has; a tail percentile is printed only
// where at least ten samples lie beyond it (day_ms_p90 on campaign and
// on long fleet-storm runs).
//
// The gated day time is the mean, not the median: the host's speed
// switches between fast and slow spells lasting seconds, so the day times
// of a run are bimodal and their median jumps to whichever spell held the
// larger share, while the mean moves in proportion to it.
func endToEndMetrics(rep *report, name string) (gated, extra []metric) {
	rs := rep.rs
	n := len(rs.dayMs)
	gated = []metric{
		{name: "plant_years_per_s", value: rs.plantHours / hoursPerYear / (rs.wallMs / 1e3), unit: "plant-years/s", n: rs.units},
		{name: "day_ms_mean", value: rs.dayMs.mean(), unit: "ms", n: n},
		{name: "setup_s", value: rep.setupS.quantile(0.5), unit: "s", n: len(rep.setupS)},
		{name: "max_rss_mb", value: rep.maxRSS, unit: "MiB"},
	}
	extra = append(extra, metric{name: "day_ms_p50", value: rs.dayMs.quantile(0.5), unit: "ms", n: n,
		note: fmt.Sprintf("min %.1f, max %.1f", rs.dayMs.quantile(0), rs.dayMs.quantile(1))})
	if tailOK(n, 0.9) {
		extra = append(extra, metric{name: "day_ms_p90", value: rs.dayMs.quantile(0.9), unit: "ms", n: n})
	}
	switch name {
	case "durable-plant":
		m := len(rs.recoveryMs)
		extra = append(extra, metric{name: "recovery_ms_p50", value: rs.recoveryMs.quantile(0.5), unit: "ms", n: m})
		if tailOK(m, 0.9) {
			extra = append(extra, metric{name: "recovery_ms_p90", value: rs.recoveryMs.quantile(0.9), unit: "ms", n: m})
		}
	case "serving":
		extra = append(extra, metric{name: "requests_per_s", value: rs.requests / (rs.wallMs / 1e3), unit: "req/s",
			n: rs.units, note: "over all day pairs"})
	}
	return gated, extra
}

// hostStamp identifies the machine a report was measured on.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	StateFS    string `json:"state_fs"`
}

func (h hostStamp) String() string {
	b, _ := json.Marshal(h) // a struct of strings and ints always marshals
	return string(b)
}

func stampHost(dir string) hostStamp {
	return hostStamp{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StateFS:    fsType(dir),
	}
}

// stealSeconds reads the machine's cumulative steal time: CPU time a
// hypervisor gave to other guests while this one was ready to run. A run
// that saw much of it measured a slower machine. Zero when unknown.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the statfs(2) magic numbers of common filesystems.
var fsMagic = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
	0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if n, ok := fsMagic[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// writePins runs every workload's full unit pool once and writes the
// digests, keyed by workload then unit.
func writePins(path, workdir string) error {
	all := map[string]map[string]string{}
	for i := range workloads {
		def := &workloads[i]
		o := &options{workdir: filepath.Join(workdir, def.name)}
		var setupS samples
		b, err := setUp(def, o, &setupS)
		if err != nil {
			return err
		}
		rs := &runStats{pinOut: map[string]string{}}
		for k := 0; k < b.poolUnits(); k++ {
			if err := b.unit(k, rs); err != nil {
				return err
			}
		}
		if err := b.close(); err != nil {
			return err
		}
		if rs.failed > 0 {
			return fmt.Errorf("%s: %d operations failed while pinning", def.name, rs.failed)
		}
		all[def.name] = rs.pinOut
		fmt.Fprintf(os.Stderr, "pinned %d %s units\n", len(rs.pinOut), def.name)
	}
	b, err := json.MarshalIndent(all, "", "  ") // sorts keys
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
