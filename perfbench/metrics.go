package main

import (
	"sort"
	"time"

	"flexftl/internal/obs"
)

// summary is what the metric tables read: the repetitions of one
// invocation, grouped by mode, and the simulated result they all share.
type summary struct {
	cfg      setupConfig
	trace    *trace
	baseHeap uint64 // live heap once the trace is generated
	sim      simResult
	plain    []rep
	spans    []rep
	recorder []rep
}

type metricDef struct {
	name, unit string
	// better is "higher" or "lower". Per-layer counts that only describe
	// the input (workload.*, ssd.*_requests) carry "higher" for the format's
	// sake; nothing should move them.
	better string
	// moves names the end-to-end metric a per-layer metric should move, and
	// on which workload.
	moves string
	value func(s *summary) float64
}

// median of f over reps; 0 for none.
func median(reps []rep, f func(r *rep) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	xs := make([]float64, len(reps))
	for i := range reps {
		xs[i] = f(&reps[i])
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runS and setupS are a repetition's host times scaled to calibRef;
// runWallS and setupWallS are the same times as measured.
func runS(r *rep) float64 { return scaled(r.run, r.calRun, r.calEnd) }

func setupS(r *rep) float64 { return scaled(r.setup(), r.calSetup, r.calRun) }

func runWallS(r *rep) float64 { return r.run.Seconds() }

func setupWallS(r *rep) float64 { return r.setup().Seconds() }

func calibS(r *rep) float64 { return (r.calSetup + r.calRun + r.calEnd).Seconds() / 3 }

// runTotals returns the traced Run's child-call totals.
func runTotals(r *rep) *callTotals { return &r.spans.run }

// spanS is the median over traced repetitions of one call kind's time.
func (s *summary) spanS(k callKind) float64 {
	return median(s.spans, func(r *rep) float64 { return float64(runTotals(r).ns[k]) / 1e9 })
}

// calls is the number of calls of kind k in the traced Run (the same in
// every traced repetition).
func (s *summary) calls(k callKind) float64 {
	if len(s.spans) == 0 {
		return 0
	}
	return float64(runTotals(&s.spans[0]).calls[k])
}

func (s *summary) selfS() float64 {
	return median(s.spans, func(r *rep) float64 {
		return (r.run - time.Duration(runTotals(r).childNS())).Seconds()
	})
}

// overhead is the median Run time of reps over the plain median, minus one.
func (s *summary) overhead(reps []rep) float64 {
	return ratio(median(reps, runS), median(s.plain, runS)) - 1
}

func (s *summary) busyUS(c obs.Cause) float64 { return float64(s.sim.Device.Busy[c]) }

// endToEnd are the metrics a run with tracing off reports.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", value: func(s *summary) float64 {
		return median(s.plain, setupS)
	}},
	{name: "pages_per_s", unit: "pages/s", better: "higher", value: func(s *summary) float64 {
		return ratio(float64(s.trace.pages()), median(s.plain, runS))
	}},
	{name: "sim_s_per_wall_s", unit: "s/s", better: "higher", value: func(s *summary) float64 {
		return ratio(s.sim.Span.Seconds(), median(s.plain, runS))
	}},
	{name: "peak_heap_mb", unit: "MB", better: "lower", value: func(s *summary) float64 {
		return median(s.plain, func(r *rep) float64 {
			return (float64(max(r.heapSetup, r.heapRun)) - float64(s.baseHeap)) / 1e6
		})
	}},
	{name: "sim_iops", unit: "IOPS", better: "higher", value: func(s *summary) float64 { return s.sim.IOPS }},
	{name: "sim_waf", unit: "ratio", better: "lower", value: func(s *summary) float64 { return s.sim.waf() }},
	{name: "sim_erases", unit: "count", better: "lower", value: func(s *summary) float64 { return float64(s.sim.Stats.Erases) }},
	{name: "sim_read_mean_us", unit: "us", better: "lower", value: func(s *summary) float64 { return s.sim.ReadMean }},
	{name: "sim_read_p999_us", unit: "us", better: "lower", value: func(s *summary) float64 { return s.sim.ReadP999 }},
	{name: "sim_write_mean_us", unit: "us", better: "lower", value: func(s *summary) float64 { return s.sim.WriteMean }},
	{name: "sim_write_p999_us", unit: "us", better: "lower", value: func(s *summary) float64 { return s.sim.WriteP999 }},
	{name: "served_frac", unit: "ratio", better: "higher", value: func(s *summary) float64 {
		return 1 - ratio(float64(s.sim.FailedReads), float64(s.trace.pages()))
	}},
}

// perLayer are the metrics a traced run reports.
var perLayer = []metricDef{
	{name: "workload.gen_ns_per_request", unit: "ns", better: "lower", moves: "none: generation is outside timing", value: func(s *summary) float64 {
		return ratio(float64(s.trace.genTime.Nanoseconds()), float64(len(s.trace.reqs)))
	}},
	{name: "workload.requests", unit: "count", better: "higher", moves: "none", value: func(s *summary) float64 { return float64(len(s.trace.reqs)) }},
	{name: "workload.pages", unit: "count", better: "higher", moves: "none", value: func(s *summary) float64 { return float64(s.trace.pages()) }},
	{name: "workload.read_frac", unit: "ratio", better: "higher", moves: "none", value: func(s *summary) float64 {
		return ratio(float64(s.trace.reads), float64(len(s.trace.reqs)))
	}},
	{name: "workload.offered_iops", unit: "IOPS", better: "higher", moves: "none", value: func(s *summary) float64 {
		last := s.trace.reqs[len(s.trace.reqs)-1].Arrival
		return ratio(float64(len(s.trace.reqs)), last.Seconds())
	}},
	{name: "workload.replay_s", unit: "s", better: "lower", moves: "none: replay pulls inside the Run span", value: func(s *summary) float64 { return s.spanS(callNext) }},
	{name: "trace.run_s", unit: "s", better: "lower", moves: "the Run span: ssd.self_s + workload.replay_s + ftl.*_s", value: func(s *summary) float64 {
		return median(s.spans, runWallS)
	}},
	{name: "ssd.self_s", unit: "s", better: "lower", moves: "pages_per_s on ntrx-gc, not on webserver-rel", value: (*summary).selfS},
	{name: "ssd.self_ns_per_page", unit: "ns", better: "lower", moves: "pages_per_s on ntrx-gc", value: func(s *summary) float64 {
		return ratio(s.selfS()*1e9, float64(s.trace.pages()))
	}},
	{name: "ssd.buffer_full_stall_us", unit: "us", better: "lower", moves: "sim_write_mean_us, sim_write_p999_us on ntrx-gc", value: func(s *summary) float64 { return s.sim.BufferStallUS }},
	{name: "ssd.read_requests", unit: "count", better: "higher", moves: "none", value: func(s *summary) float64 { return float64(s.sim.ReadRequests) }},
	{name: "ssd.write_requests", unit: "count", better: "higher", moves: "none", value: func(s *summary) float64 { return float64(s.sim.WriteRequests) }},
	{name: "ssd.trim_requests", unit: "count", better: "higher", moves: "none", value: func(s *summary) float64 { return float64(s.sim.TrimRequests) }},
	{name: "ftl.write_s", unit: "s", better: "lower", moves: "pages_per_s on ntrx-gc", value: func(s *summary) float64 { return s.spanS(callWrite) }},
	{name: "ftl.read_s", unit: "s", better: "lower", moves: "pages_per_s on paper-16g and webserver-rel", value: func(s *summary) float64 { return s.spanS(callRead) }},
	{name: "ftl.trim_s", unit: "s", better: "lower", moves: "pages_per_s on tlc-webserver and webserver-rel", value: func(s *summary) float64 { return s.spanS(callTrim) }},
	{name: "ftl.idle_s", unit: "s", better: "lower", moves: "pages_per_s on webserver-rel", value: func(s *summary) float64 { return s.spanS(callIdle) }},
	{name: "ftl.write_calls", unit: "count", better: "lower", moves: "none", value: func(s *summary) float64 { return s.calls(callWrite) }},
	{name: "ftl.read_calls", unit: "count", better: "lower", moves: "none", value: func(s *summary) float64 { return s.calls(callRead) }},
	{name: "ftl.trim_calls", unit: "count", better: "lower", moves: "none", value: func(s *summary) float64 { return s.calls(callTrim) }},
	{name: "ftl.idle_calls", unit: "count", better: "lower", moves: "none", value: func(s *summary) float64 { return s.calls(callIdle) }},
	{name: "ftl.write_ns_per_call", unit: "ns", better: "lower", moves: "pages_per_s on ntrx-gc", value: func(s *summary) float64 {
		return ratio(s.spanS(callWrite)*1e9, s.calls(callWrite))
	}},
	{name: "ftl.read_ns_per_call", unit: "ns", better: "lower", moves: "pages_per_s on paper-16g", value: func(s *summary) float64 {
		return ratio(s.spanS(callRead)*1e9, s.calls(callRead))
	}},
	{name: "ftl.idle_ns_per_call", unit: "ns", better: "lower", moves: "pages_per_s on webserver-rel", value: func(s *summary) float64 {
		return ratio(s.spanS(callIdle)*1e9, s.calls(callIdle))
	}},
	{name: "ftl.gc_copies", unit: "count", better: "lower", moves: "sim_waf, pages_per_s on ntrx-gc", value: func(s *summary) float64 { return float64(s.sim.Stats.GCCopies) }},
	{name: "ftl.fg_gcs", unit: "count", better: "lower", moves: "sim_erases, sim_write_p999_us on ntrx-gc", value: func(s *summary) float64 { return float64(s.sim.Stats.ForegroundGCs) }},
	{name: "ftl.bg_gcs", unit: "count", better: "lower", moves: "sim_erases on tlc-webserver and webserver-rel", value: func(s *summary) float64 { return float64(s.sim.Stats.BackgroundGCs) }},
	{name: "ftl.backup_writes", unit: "count", better: "lower", moves: "sim_waf on ntrx-gc", value: func(s *summary) float64 { return float64(s.sim.Stats.BackupWrites) }},
	{name: "ftl.pad_writes", unit: "count", better: "lower", moves: "sim_waf (zero for flexFTL and nflexTLC)", value: func(s *summary) float64 { return float64(s.sim.Stats.PadWrites) }},
	{name: "ftl.host_writes_lsb_frac", unit: "ratio", better: "higher", moves: "sim_iops on ntrx-gc", value: func(s *summary) float64 {
		return ratio(float64(s.sim.Stats.HostWritesLSB), float64(s.sim.Stats.HostWrites))
	}},
	{name: "ftl.gc_copies_per_erase", unit: "ratio", better: "lower", moves: "sim_waf on ntrx-gc", value: func(s *summary) float64 {
		return ratio(float64(s.sim.Stats.GCCopies), float64(s.sim.Stats.Erases))
	}},
	{name: "nand.reads", unit: "count", better: "lower", moves: "sim_read_mean_us", value: func(s *summary) float64 { return float64(s.sim.Device.Reads) }},
	{name: "nand.programs_lsb", unit: "count", better: "higher", moves: "sim_iops on ntrx-gc", value: func(s *summary) float64 { return float64(s.sim.Device.ProgramsLSB) }},
	{name: "nand.programs_msb", unit: "count", better: "lower", moves: "sim_iops on ntrx-gc", value: func(s *summary) float64 { return float64(s.sim.Device.ProgramsMSB) }},
	{name: "nand.erases", unit: "count", better: "lower", moves: "sim_erases", value: func(s *summary) float64 { return float64(s.sim.Device.Erases) }},
	{name: "nand.busy_us.host", unit: "us", better: "lower", moves: "sim_iops", value: func(s *summary) float64 { return s.busyUS(obs.CauseHost) }},
	{name: "nand.busy_us.gc", unit: "us", better: "lower", moves: "sim_iops, sim_write_p999_us on ntrx-gc", value: func(s *summary) float64 { return s.busyUS(obs.CauseGC) }},
	{name: "nand.busy_us.backup", unit: "us", better: "lower", moves: "sim_iops, sim_write_p999_us on ntrx-gc", value: func(s *summary) float64 { return s.busyUS(obs.CauseBackup) }},
	{name: "nand.busy_us.pad", unit: "us", better: "lower", moves: "sim_iops (zero for flexFTL and nflexTLC)", value: func(s *summary) float64 { return s.busyUS(obs.CausePad) }},
	{name: "nand.busy_us.reprogram", unit: "us", better: "lower", moves: "sim_iops on ntrx-gc", value: func(s *summary) float64 {
		if len(s.recorder) == 0 {
			return 0
		}
		return float64(s.recorder[0].reprogramUS)
	}},
	{name: "nand.busy_us.read_retry", unit: "us", better: "lower", moves: "sim_read_p999_us on webserver-rel", value: func(s *summary) float64 { return s.busyUS(obs.CauseReadRetry) }},
	{name: "nand.busy_us.scrub", unit: "us", better: "lower", moves: "sim_read_p999_us on webserver-rel", value: func(s *summary) float64 { return s.busyUS(obs.CauseScrub) }},
	{name: "nand.chip_util", unit: "ratio", better: "lower", moves: "sim_iops", value: func(s *summary) float64 {
		var busy int64
		for _, b := range s.sim.Device.Busy {
			busy += b
		}
		return ratio(float64(busy), float64(s.sim.Chips)*float64(s.sim.Span))
	}},
	{name: "nand.wear_spread", unit: "ratio", better: "lower", moves: "sim_erases", value: func(s *summary) float64 { return s.sim.WearSpread }},
	{name: "rel.reads", unit: "count", better: "lower", moves: "sim_read_p999_us on webserver-rel", value: func(s *summary) float64 { return float64(s.sim.Device.Rel.Reads) }},
	{name: "rel.clean_frac", unit: "ratio", better: "higher", moves: "sim_read_mean_us on webserver-rel", value: func(s *summary) float64 {
		r := s.sim.Device.Rel
		return ratio(float64(r.Reads-r.Corrected), float64(r.Reads))
	}},
	{name: "rel.retried_reads", unit: "count", better: "lower", moves: "sim_read_p999_us on webserver-rel", value: func(s *summary) float64 { return float64(s.sim.Device.Rel.RetriedReads) }},
	{name: "rel.retry_rounds", unit: "count", better: "lower", moves: "sim_read_p999_us on webserver-rel", value: func(s *summary) float64 { return float64(s.sim.Device.Rel.RetryRounds) }},
	{name: "rel.uncorrectable", unit: "count", better: "lower", moves: "served_frac", value: func(s *summary) float64 { return float64(s.sim.Device.Rel.Uncorrectable) }},
	{name: "rel.scrub_reads", unit: "count", better: "lower", moves: "ftl.idle_s, so pages_per_s on webserver-rel", value: func(s *summary) float64 { return float64(s.sim.Stats.ScrubReads) }},
	{name: "rel.refresh_copies", unit: "count", better: "lower", moves: "sim_waf on webserver-rel", value: func(s *summary) float64 { return float64(s.sim.Stats.RefreshCopies) }},
	{name: "rel.retired_blocks", unit: "count", better: "lower", moves: "sim_erases on webserver-rel", value: func(s *summary) float64 { return float64(s.sim.Stats.RetiredBlocks) }},
	{name: "rel.ecc_rebuilds", unit: "count", better: "lower", moves: "served_frac on webserver-rel", value: func(s *summary) float64 { return float64(s.sim.Stats.ECCRebuilds) }},
	{name: "host.calib_s", unit: "s", better: "lower", moves: "none: the calibration kernel, which setup_s, pages_per_s and sim_s_per_wall_s divide by", value: func(s *summary) float64 {
		return median(s.plain, calibS)
	}},
	{name: "host.setup_wall_s", unit: "s", better: "lower", moves: "setup_s, of which it is the unscaled wall time", value: func(s *summary) float64 {
		return median(s.plain, setupWallS)
	}},
	{name: "host.run_wall_s", unit: "s", better: "lower", moves: "pages_per_s and sim_s_per_wall_s, of which it is the unscaled wall time", value: func(s *summary) float64 {
		return median(s.plain, runWallS)
	}},
	{name: "setup.build_s", unit: "s", better: "lower", moves: "setup_s, peak_heap_mb on paper-16g", value: func(s *summary) float64 {
		return median(s.plain, func(r *rep) float64 { return r.build.Seconds() })
	}},
	{name: "setup.wear_s", unit: "s", better: "lower", moves: "setup_s on webserver-rel", value: func(s *summary) float64 {
		return median(s.plain, func(r *rep) float64 { return r.wear.Seconds() })
	}},
	{name: "setup.prefill_s", unit: "s", better: "lower", moves: "setup_s on paper-16g", value: func(s *summary) float64 {
		return median(s.plain, func(r *rep) float64 { return r.prefill.Seconds() })
	}},
	{name: "setup.prefill_pages_per_s", unit: "pages/s", better: "higher", moves: "setup_s on paper-16g", value: func(s *summary) float64 {
		return ratio(float64(s.cfg.prefillPages()), median(s.plain, func(r *rep) float64 { return r.prefill.Seconds() }))
	}},
	{name: "setup.heap_mb", unit: "MB", better: "lower", moves: "peak_heap_mb on paper-16g and webserver-rel", value: func(s *summary) float64 {
		return median(s.plain, func(r *rep) float64 { return (float64(r.heapSetup) - float64(s.baseHeap)) / 1e6 })
	}},
	{name: "runtime.run_allocs", unit: "count", better: "lower", moves: "pages_per_s on paper-16g and tlc-webserver, not on ntrx-gc", value: func(s *summary) float64 {
		return median(s.plain, func(r *rep) float64 { return float64(r.allocs) })
	}},
	{name: "runtime.run_alloc_bytes_per_page", unit: "B", better: "lower", moves: "pages_per_s on paper-16g and tlc-webserver", value: func(s *summary) float64 {
		return median(s.plain, func(r *rep) float64 { return ratio(float64(r.allocBytes), float64(s.trace.pages())) })
	}},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "pages_per_s on paper-16g and tlc-webserver", value: func(s *summary) float64 {
		return median(s.plain, func(r *rep) float64 { return float64(r.gcCycles) })
	}},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower", moves: "pages_per_s on paper-16g and tlc-webserver", value: func(s *summary) float64 {
		return median(s.plain, func(r *rep) float64 { return ratio(r.gcCPU, r.totalCPU) })
	}},
	{name: "obs.recorder_overhead_frac", unit: "ratio", better: "lower", moves: "none: what an obs.Recorder costs", value: func(s *summary) float64 { return s.overhead(s.recorder) }},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none: what this tracing costs", value: func(s *summary) float64 { return s.overhead(s.spans) }},
}
