package main

import (
	"fmt"
	"math"

	"insure/internal/cost"
)

// fleetChunkBytes is fleet.Config's default transfer chunk, which the
// benchmark's federation keeps.
const fleetChunkBytes = 250e6

// layerMetrics lists the per-layer metrics of a traced run. gated holds
// the layers every workload runs (sim, plc, core control, workload, the
// runtime) plus the tracing overhead; BENCHMARK.json lists exactly these.
// extra holds the layers only some workloads run, each printed only where
// it ran: a layer that did not run has nothing to measure.
func layerMetrics(rep *report) (gated, extra []metric) {
	rs := rep.rs
	l := &rs.lay
	q := func(name string, h *hist, p, scale float64, unit string) metric {
		return metric{name: name, value: h.quantile(p) / scale, unit: unit, n: int(h.n)}
	}
	s := func(name string, v samples, p float64, unit string) metric {
		return metric{name: name, value: v.quantile(p), unit: unit, n: len(v)}
	}
	count := func(name string, v int64) metric { return metric{name: name, value: float64(v), unit: "count"} }
	perTick := func(v uint64) float64 {
		if l.windowTicks == 0 {
			return 0
		}
		return float64(v) / float64(l.windowTicks)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	overhead := 0.0
	if len(rs.tracedDayMs) > 0 && len(rs.dayMs) > 0 {
		overhead = rs.tracedDayMs.quantile(0.5) - rs.dayMs.quantile(0.5)
	}
	gated = []metric{
		q("sim.tick_ns_p50", &l.tick, 0.5, 1, "ns"),
		q("sim.tick_ns_p99", &l.tick, 0.99, 1, "ns"),
		q("sim.tick_self_ns_p50", &l.tickSelf, 0.5, 1, "ns"),
		count("sim.ticks", l.ticks),
		s("sim.new_ms_p50", l.simNewMs, 0.5, "ms"),
		{name: "sim.allocs_per_tick", value: perTick(l.allocObjs), unit: "allocs/tick", n: int(l.windowTicks)},
		{name: "sim.bytes_per_tick", value: perTick(l.allocB), unit: "B/tick", n: int(l.windowTicks)},
		q("plc.sample_ns_p50", &l.sample, 0.5, 1, "ns"),
		q("plc.sample_ns_p99", &l.sample, 0.99, 1, "ns"),
		q("plc.actuate_ns_p50", &l.actuate, 0.5, 1, "ns"),
		q("plc.actuate_ns_p99", &l.actuate, 0.99, 1, "ns"),
		count("plc.scans", l.scans),
		q("core.control_us_p50", &l.control, 0.5, 1e3, "us"),
		q("core.control_us_p99", &l.control, 0.99, 1e3, "us"),
		count("core.passes", l.passes),
		q("workload.sink_ns_p50", &l.sink, 0.5, 1, "ns"),
		q("workload.sink_ns_p99", &l.sink, 0.99, 1, "ns"),
		count("go.gc_cycles", int64(rep.gcCount)),
		{name: "trace.overhead_ms", value: overhead, unit: "ms", n: len(rs.tracedDayMs),
			note: fmt.Sprintf("traced minus untraced day_ms_p50 over %d traced and %d untraced units",
				len(rs.tracedDayMs), len(rs.dayMs))},
	}

	extra = []metric{{name: "go.gc_pause_ms", value: float64(rep.gcPause) / 1e6, unit: "ms"}}
	if len(l.recoverMs) > 0 {
		extra = append(extra,
			s("core.recover_ms_p50", l.recoverMs, 0.5, "ms"),
			s("core.recover_ms_p90", l.recoverMs, 0.9, "ms"),
			s("core.reconcile_us_p50", l.reconcileUs, 0.5, "us"),
			count("core.reconciliations", l.reconciliations))
	}
	if l.appendPass.n+l.snapshotPass.n > 0 {
		extra = append(extra,
			q("journal.append_pass_us_p50", &l.appendPass, 0.5, 1e3, "us"),
			q("journal.append_pass_us_p99", &l.appendPass, 0.99, 1e3, "us"),
			q("journal.snapshot_pass_ms_p50", &l.snapshotPass, 0.5, 1e6, "ms"),
			q("journal.snapshot_pass_ms_p99", &l.snapshotPass, 0.99, 1e6, "ms"))
	}
	if l.fsyncs > 0 {
		extra = append(extra,
			q("journal.fsync_us_p50", &l.fsync, 0.5, 1e3, "us"),
			q("journal.fsync_us_p99", &l.fsync, 0.99, 1e3, "us"),
			count("journal.fsyncs", l.fsyncs),
			count("journal.renames", l.renames),
			metric{name: "journal.bytes_written", value: float64(l.bytesWritten), unit: "bytes"},
			s("journal.scrub_ms_p50", l.scrubMs, 0.5, "ms"),
			metric{name: "journal.scrub_bytes", value: float64(l.scrubBytes), unit: "bytes"})
	}
	if len(l.runDayMs) > 0 {
		// The coordinator pass is what the Abort-poll gap after a pass
		// tick adds over the gap after an ordinary tick.
		idle := l.idleGap.quantile(0.5)
		pass := func(name string, p float64) metric {
			return metric{name: name, value: (l.passGap.quantile(p) - idle) / 1e3, unit: "us",
				n: int(l.passGap.n), note: "estimated from Abort polls"}
		}
		extra = append(extra,
			s("fleet.run_day_ms_p50", l.runDayMs, 0.5, "ms"),
			pass("fleet.pass_us_p50", 0.5),
			pass("fleet.pass_us_p99", 0.99),
			metric{name: "fleet.chunks_attempted", unit: "count",
				value: float64(rs.chunkFails) + math.Round(rs.goodputGB*cost.BytesPerGB/fleetChunkBytes),
				note:  "failed chunks plus goodput at the 250 MB chunk size"},
			metric{name: "fleet.chunk_goodput_ratio", value: ratio(rs.goodputGB, rs.goodputGB+rs.retransmitGB),
				unit: "ratio", note: "goodput GB over goodput plus retransmitted GB"},
			metric{name: "fleet.retransmit_gb", value: rs.retransmitGB, unit: "GB"},
			count("fleet.migrations", rs.migrations),
			count("fleet.log_fsyncs", l.logFsyncs),
			metric{name: "fleet.log_bytes", value: float64(l.logBytes), unit: "bytes"},
			count("fleet.images_verified", rs.imagesVerified))
	}
	if l.offer.n > 0 {
		extra = append(extra,
			q("gateway.offer_ns_p50", &l.offer, 0.5, 1, "ns"),
			q("gateway.offer_ns_p99", &l.offer, 0.99, 1, "ns"),
			q("gateway.advance_ns_p50", &l.advance, 0.5, 1, "ns"),
			q("gateway.advance_ns_p99", &l.advance, 0.99, 1, "ns"),
			q("gateway.plant_state_ns_p50", &l.plantState, 0.5, 1, "ns"),
			count("gateway.plant_state_calls", l.plantStateCalls),
			metric{name: "gateway.served_ratio", value: ratio(float64(rs.gwServed), float64(rs.gwRequests)),
				unit: "ratio", n: int(rs.gwRequests)},
			count("gateway.shed", rs.gwShed),
			count("gateway.queued", rs.gwQueued))
	}
	return gated, extra
}
