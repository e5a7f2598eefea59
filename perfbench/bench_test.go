package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"insure/internal/journal"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runOnce runs one timed unit of a workload and returns the printed report
// and its parsed last line.
func runOnce(t *testing.T, def *workloadDef, traced bool, pins map[string]map[string]string) (string, jsonResult) {
	t.Helper()
	o := &options{seed: 7, traced: traced, workdir: filepath.Join(t.TempDir(), def.name)}
	rep, err := measure(def, o, 0, pins, "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.print(&out, def.name, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	return out.String(), res
}

// TestSmoke runs each workload briefly in both modes: every metric
// BENCHMARK.json names appears with its unit, the workload's own
// end-to-end figures are printed, and no operation fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	extra := map[string][]string{
		"durable-plant": {"recovery_ms_p50"},
		"serving":       {"requests_per_s"},
	}
	// The per-layer metrics of layers only some workloads run.
	layers := map[string][]string{
		"durable-plant": {"core.recover_ms_p50", "core.recover_ms_p90", "core.reconcile_us_p50",
			"core.reconciliations", "journal.append_pass_us_p50", "journal.append_pass_us_p99",
			"journal.snapshot_pass_ms_p50", "journal.snapshot_pass_ms_p99", "journal.fsync_us_p50",
			"journal.fsync_us_p99", "journal.fsyncs", "journal.renames", "journal.bytes_written",
			"journal.scrub_ms_p50", "journal.scrub_bytes"},
		"fleet-storm": {"journal.fsync_us_p50", "journal.fsyncs", "journal.scrub_ms_p50",
			"fleet.run_day_ms_p50", "fleet.pass_us_p50", "fleet.pass_us_p99", "fleet.chunks_attempted",
			"fleet.chunk_goodput_ratio", "fleet.retransmit_gb", "fleet.migrations", "fleet.log_fsyncs",
			"fleet.log_bytes", "fleet.images_verified"},
		"serving": {"gateway.offer_ns_p50", "gateway.offer_ns_p99", "gateway.advance_ns_p50",
			"gateway.advance_ns_p99", "gateway.plant_state_ns_p50", "gateway.plant_state_calls",
			"gateway.served_ratio", "gateway.shed", "gateway.queued"},
	}
	for i := range workloads {
		def := &workloads[i]
		for _, traced := range []bool{false, true} {
			out, res := runOnce(t, def, traced, pins)
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", def.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", def.name, traced, m.Name, got, m.Unit)
				}
			}
			printed := append([]string{"day_ms_p50"}, extra[def.name]...)
			if traced {
				printed = append(layers[def.name], "go.gc_pause_ms")
			}
			for _, name := range append(printed, "error_rate") {
				if !strings.Contains(out, "\n"+name+" ") {
					t.Errorf("%s traced=%v: report lacks %s", def.name, traced, name)
				}
			}
			if !traced {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", def.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
			if res.Failed != 0 || res.Attempted == 0 || !res.Correct {
				t.Errorf("%s traced=%v: %d of %d operations failed", def.name, traced, res.Failed, res.Attempted)
			}
		}
	}
}

// TestCorruptPinFailsEverything corrupts every pinned digest: each
// operation a digest covers must then count as failed.
func TestCorruptPinFailsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]map[string]string{}
	for w, m := range pins {
		bad[w] = map[string]string{}
		for k, v := range m {
			bad[w][k] = "0" + v[1:]
			if v[0] == '0' {
				bad[w][k] = "1" + v[1:]
			}
		}
	}
	for i := range workloads {
		def := &workloads[i]
		_, res := runOnce(t, def, false, bad)
		if res.Attempted == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: %d of %d operations failed with corrupt pins, want all", def.name, res.Failed, res.Attempted)
		}
	}
}

// TestSpanFSPassesThrough writes the same store through the span-recording
// FS and through the plain disk: the two directories must hold identical
// bytes and load identically.
func TestSpanFSPassesThrough(t *testing.T) {
	root := t.TempDir()
	tr := &tracer{}
	write := func(fsys journal.FS, dir string) {
		st, err := journal.OpenFS(fsys, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			payload := bytes.Repeat([]byte{byte(i)}, 10+i)
			if i%15 == 14 {
				err = st.Snapshot(payload)
			} else {
				_, err = st.Append(payload)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := journal.TruncateTailFS(fsys, dir, tornBytes); err != nil {
			t.Fatal(err)
		}
		st, err = journal.OpenFS(fsys, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	plain, traced := filepath.Join(root, "plain"), filepath.Join(root, "traced")
	write(journal.Disk, plain)
	write(&spanFS{inner: journal.Disk, t: tr}, traced)

	names, err := journal.Disk.ReadDir(plain)
	if err != nil {
		t.Fatal(err)
	}
	tnames, err := journal.Disk.ReadDir(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, tnames) {
		t.Fatalf("files differ: %v vs %v", names, tnames)
	}
	for _, n := range names {
		a, errA := os.ReadFile(filepath.Join(plain, n))
		b, errB := os.ReadFile(filepath.Join(traced, n))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s differs between the plain and the traced store", n)
		}
	}
	la, err := journal.Load(plain)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := journal.Load(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(la, lb) {
		t.Errorf("stores load differently:\n%+v\n%+v", la, lb)
	}
	if tr.fsyncs == 0 || tr.renames == 0 || tr.bytesWritten == 0 {
		t.Errorf("span FS recorded nothing: %d fsyncs, %d renames, %d bytes", tr.fsyncs, tr.renames, tr.bytesWritten)
	}
}

func TestSameExceptRecoveries(t *testing.T) {
	var want, got, other journal.Encoder
	for _, e := range []*journal.Encoder{&want, &got, &other} {
		e.F64(0.5)
	}
	want.Int(3)
	got.Int(4)
	other.Int(4)
	for _, e := range []*journal.Encoder{&want, &got} {
		e.Int(9)
	}
	other.Int(8)
	if !sameExceptRecoveries(want.Bytes(), got.Bytes(), 3) {
		t.Error("states differing only in the advanced counter compare unequal")
	}
	if sameExceptRecoveries(want.Bytes(), other.Bytes(), 3) {
		t.Error("states differing beyond the counter compare equal")
	}
	if sameExceptRecoveries(want.Bytes(), want.Bytes(), 3) {
		t.Error("a counter that did not advance compares equal")
	}
}
