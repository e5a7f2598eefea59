package main

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"insure/internal/core"
	"insure/internal/gateway"
	"insure/internal/journal"
	"insure/internal/plc"
	"insure/internal/sim"
)

// epoch anchors the tracer's monotonic nanosecond clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// tracer records the spans of one goroutine's units of work. Every span is
// taken in this package, around a call into a layer's public API or inside
// a hook the layer exposes; nothing in the program under test is changed.
//
// A tick is measured from its tick hook to the next boundary on the same
// goroutine: the next tick hook of any plant, a coordinator Abort poll, a
// gateway call, or the harness taking back control. Child spans opened
// inside a tick (PLC sample/actuate, manager control, sink) add to the
// tick's child time, so the tick's self time is what no wrapper covers:
// battery physics, relay fabric, accounting, telemetry and recorder.
type tracer struct {
	tick, tickSelf    hist // ns
	sample, actuate   hist // ns
	control           hist // ns, manager control pass without journal I/O
	sink              hist // ns
	appendPass        hist // ns, journal commit that did not rename
	snapshotPass      hist // ns, journal commit that renamed (snapshot/seal)
	fsync             hist // ns, File.Sync and SyncDir
	offer, advance    hist // ns
	plantState        hist // ns
	passGap, idleGap  hist // ns, Abort-poll gap after a coordinator pass tick / after any other tick
	ticks, scans      int64
	passes            int64
	fsyncs, renames   int64
	bytesWritten      int64
	scrubBytes        int64
	logFsyncs         int64
	logBytes          int64
	plantStateCalls   int64
	reconciliations   int64
	simNewMs          samples
	recoverMs         samples
	reconcileUs       samples
	scrubMs           samples
	runDayMs          samples
	allocObjs, allocB uint64 // heap allocations inside tick-loop windows
	windowTicks       int64  // ticks inside those windows

	tickOpen  bool
	tickStart int64
	child     int64

	// Journal pass state, live while a control span is open.
	inPass              bool
	passFirst, passLast int64
	passRename          bool
	inScrub             bool
	logDir              string // fleet migration-log directory, for attribution
	lastSinkEnd         int64
	lastTod             time.Duration
	coordPeriod         time.Duration
	sawPoll             bool
}

func (t *tracer) merge(o *tracer) {
	for _, p := range [][2]*hist{
		{&t.tick, &o.tick}, {&t.tickSelf, &o.tickSelf}, {&t.sample, &o.sample},
		{&t.actuate, &o.actuate}, {&t.control, &o.control}, {&t.sink, &o.sink},
		{&t.appendPass, &o.appendPass}, {&t.snapshotPass, &o.snapshotPass},
		{&t.fsync, &o.fsync}, {&t.offer, &o.offer}, {&t.advance, &o.advance},
		{&t.plantState, &o.plantState}, {&t.passGap, &o.passGap}, {&t.idleGap, &o.idleGap},
	} {
		p[0].merge(p[1])
	}
	t.ticks += o.ticks
	t.scans += o.scans
	t.passes += o.passes
	t.fsyncs += o.fsyncs
	t.renames += o.renames
	t.bytesWritten += o.bytesWritten
	t.scrubBytes += o.scrubBytes
	t.logFsyncs += o.logFsyncs
	t.logBytes += o.logBytes
	t.plantStateCalls += o.plantStateCalls
	t.reconciliations += o.reconciliations
	t.simNewMs = append(t.simNewMs, o.simNewMs...)
	t.recoverMs = append(t.recoverMs, o.recoverMs...)
	t.reconcileUs = append(t.reconcileUs, o.reconcileUs...)
	t.scrubMs = append(t.scrubMs, o.scrubMs...)
	t.runDayMs = append(t.runDayMs, o.runDayMs...)
	t.allocObjs += o.allocObjs
	t.allocB += o.allocB
	t.windowTicks += o.windowTicks
}

// allocWindow marks the start of a tick loop whose heap allocations count
// toward sim.allocs_per_tick and sim.bytes_per_tick.
type allocWindow struct {
	objs, bytes uint64
	ticks       int64
}

func (t *tracer) openWindow() allocWindow {
	objs, bytes := heapAllocs()
	return allocWindow{objs, bytes, t.ticks}
}

func (t *tracer) closeWindow(w allocWindow) {
	objs, bytes := heapAllocs()
	t.allocObjs += objs - w.objs
	t.allocB += bytes - w.bytes
	t.windowTicks += t.ticks - w.ticks
}

// heapAllocs reads the process-wide cumulative heap allocation counters.
func heapAllocs() (objs, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// boundary closes the open tick, if any, at now.
func (t *tracer) boundary(now int64) {
	if !t.tickOpen {
		return
	}
	d := now - t.tickStart
	t.tick.add(d)
	t.tickSelf.add(d - t.child)
	t.tickOpen = false
}

// tickHook is installed with sim.System.SetTickHook.
func (t *tracer) tickHook(time.Duration) {
	now := nanotime()
	t.boundary(now)
	t.tickOpen = true
	t.tickStart = now
	t.child = 0
	t.ticks++
}

// childSpan charges a span that ended at end to h and to the open tick.
func (t *tracer) childSpan(h *hist, start, end int64) {
	d := end - start
	h.add(d)
	if t.tickOpen {
		t.child += d
	}
}

// abortPoll is installed as fleet.Config.Abort. The coordinator polls it at
// the top of every tick, right after the previous tick's pass (if any), so
// the gap since the last sink span estimates the pass: pass-tick gaps
// minus the median gap of ordinary ticks.
func (t *tracer) abortPoll(_ int, tod time.Duration) bool {
	now := nanotime()
	t.boundary(now)
	if t.sawPoll && t.lastSinkEnd > 0 {
		gap := now - t.lastSinkEnd
		if t.coordPeriod > 0 && t.lastTod%t.coordPeriod == 0 {
			t.passGap.add(gap)
		} else {
			t.idleGap.add(gap)
		}
	}
	t.sawPoll = true
	t.lastTod = tod
	return false
}

// wrapPLC wraps the scan bindings of a plant's PLC.
func (t *tracer) wrapPLC(p *plc.PLC) {
	sample, actuate := p.Sample, p.Actuate
	p.Sample = func(r *plc.RegisterFile) {
		s := nanotime()
		sample(r)
		t.childSpan(&t.sample, s, nanotime())
		t.scans++
	}
	p.Actuate = func(r *plc.RegisterFile) {
		s := nanotime()
		actuate(r)
		t.childSpan(&t.actuate, s, nanotime())
	}
}

// instrument installs the tick hook, PLC and sink wrappers on sys. Call it
// after any AttachTelemetry, which inspects the concrete sink type.
func (t *tracer) instrument(sys *sim.System) {
	sys.SetTickHook(t.tickHook)
	t.wrapPLC(sys.PLC)
	sys.Sink = &spanSink{Sink: sys.Sink, t: t}
}

// beginControl opens a manager control-pass span. Journal FS operations
// issued before endControl form the pass's commit: their extent goes to
// the append or snapshot pass histogram and the rest is the manager's own
// control time.
func (t *tracer) beginControl() int64 {
	t.inPass = true
	t.passFirst, t.passLast, t.passRename = 0, 0, false
	return nanotime()
}

func (t *tracer) endControl(start int64) {
	end := nanotime()
	t.inPass = false
	t.passes++
	commit := int64(0)
	if t.passFirst > 0 {
		commit = t.passLast - t.passFirst
		if t.passRename {
			t.snapshotPass.add(commit)
		} else {
			t.appendPass.add(commit)
		}
	}
	t.control.add(end - start - commit)
	if t.tickOpen {
		t.child += end - start
	}
}

// topSpan records a span the harness itself opens between ticks (a
// gateway call); it closes the open tick first.
func (t *tracer) topSpan(h *hist, start, end int64) {
	t.boundary(start)
	h.add(end - start)
}

// spanManager wraps any sim.Manager whose caller needs only the interface
// methods (every path but the fleet coordinator's).
type spanManager struct {
	sim.Manager
	t *tracer
}

func (m *spanManager) Control(sys *sim.System, now time.Duration) {
	s := m.t.beginControl()
	m.Manager.Control(sys, now)
	m.t.endControl(s)
}

// spanCoreManager wraps a *core.Manager and keeps its promoted methods
// (SetModeHook, Mode, ...) visible to the fleet coordinator's interface
// checks.
type spanCoreManager struct {
	*core.Manager
	t *tracer
}

func (m *spanCoreManager) Control(sys *sim.System, now time.Duration) {
	s := m.t.beginControl()
	m.Manager.Control(sys, now)
	m.t.endControl(s)
}

// spanSink wraps the workload sink a System ticks.
type spanSink struct {
	sim.Sink
	t *tracer
}

func (s *spanSink) Tick(now, dt time.Duration, workVMh float64, nVMs int) float64 {
	st := nanotime()
	gb := s.Sink.Tick(now, dt, workVMh, nVMs)
	e := nanotime()
	s.t.childSpan(&s.t.sink, st, e)
	s.t.lastSinkEnd = e
	return gb
}

// spanPlant wraps the gateway's view of a plant.
type spanPlant struct {
	gateway.Plant
	t *tracer
}

func (p spanPlant) State(now time.Duration) gateway.State {
	s := nanotime()
	st := p.Plant.State(now)
	p.t.plantState.add(nanotime() - s)
	p.t.plantStateCalls++
	return st
}

// spanFS is a journal.FS that forwards every operation unchanged to its
// inner FS and records the cost of writes, fsyncs and renames.
type spanFS struct {
	inner journal.FS
	t     *tracer
}

func (f *spanFS) op(start int64, path string, fsync, rename bool, wrote int) {
	t := f.t
	end := nanotime()
	if t.inPass {
		if t.passFirst == 0 {
			t.passFirst = start
		}
		t.passLast = end
		t.passRename = t.passRename || rename
	}
	inLog := t.logDir != "" && strings.HasPrefix(path, t.logDir)
	if fsync {
		t.fsync.add(end - start)
		t.fsyncs++
		if inLog {
			t.logFsyncs++
		}
	}
	if rename {
		t.renames++
	}
	t.bytesWritten += int64(wrote)
	if inLog {
		t.logBytes += int64(wrote)
	}
}

func (f *spanFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *spanFS) OpenFile(name string, flag int) (journal.File, error) {
	file, err := f.inner.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &spanFile{File: file, fs: f, name: name}, nil
}

func (f *spanFS) ReadFile(name string) ([]byte, error) {
	b, err := f.inner.ReadFile(name)
	if f.t.inScrub {
		f.t.scrubBytes += int64(len(b))
	}
	return b, err
}

func (f *spanFS) Rename(oldname, newname string) error {
	s := nanotime()
	err := f.inner.Rename(oldname, newname)
	f.op(s, newname, false, true, 0)
	return err
}

func (f *spanFS) Remove(name string) error              { return f.inner.Remove(name) }
func (f *spanFS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }
func (f *spanFS) ReadDir(dir string) ([]string, error)  { return f.inner.ReadDir(dir) }

func (f *spanFS) SyncDir(dir string) error {
	s := nanotime()
	err := f.inner.SyncDir(dir)
	f.op(s, filepath.Join(dir, "."), true, false, 0)
	return err
}

type spanFile struct {
	journal.File
	fs   *spanFS
	name string
}

func (f *spanFile) Write(p []byte) (int, error) {
	s := nanotime()
	n, err := f.File.Write(p)
	f.fs.op(s, f.name, false, false, n)
	return n, err
}

func (f *spanFile) Sync() error {
	s := nanotime()
	err := f.File.Sync()
	f.fs.op(s, f.name, true, false, 0)
	return err
}
