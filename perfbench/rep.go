package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/nandn"
	"flexftl/internal/obs"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
	"flexftl/internal/ssd"
)

// repMode selects what a repetition attaches to the run.
type repMode uint8

const (
	modePlain    repMode = iota // nothing: the end-to-end measurement
	modeSpans                   // the benchmark's own span tracer
	modeRecorder                // an obs.Recorder on a discarding sink
)

// deviceCounts is the device-side state the benchmark reads around Run.
// Every field is cumulative on the device, so results use differences.
type deviceCounts struct {
	Reads, ProgramsLSB, ProgramsMSB, Erases int64
	// Busy is media busy time by obs.Cause, in µs of chip occupancy.
	Busy [obs.CauseCount]int64
	Rel  rel.Counts
}

func (c deviceCounts) programs() int64 { return c.ProgramsLSB + c.ProgramsMSB }

// probeDevice reads the counters of the device under h. On the n-level
// device, level-0 programs count as LSB and upper levels as MSB.
func probeDevice(h ftl.Host) (deviceCounts, int, error) {
	var c deviceCounts
	var busy [obs.CauseCount]sim.Time
	var chips int
	switch d := h.(type) {
	case interface{ Device() *nand.Device }:
		dev := d.Device()
		oc := dev.Counts()
		c.Reads, c.ProgramsLSB, c.ProgramsMSB, c.Erases = oc.Reads, oc.ProgramsLSB, oc.ProgramsMSB, oc.Erases
		busy, c.Rel, chips = dev.CauseBusy(), dev.RelCounts(), dev.Geometry().Chips()
	case interface{ Device() *nandn.Device }:
		dev := d.Device()
		for lvl, n := range dev.Programs() {
			if lvl == 0 {
				c.ProgramsLSB += n
			} else {
				c.ProgramsMSB += n
			}
		}
		c.Reads, c.Erases = dev.Reads(), dev.Erases()
		busy, c.Rel, chips = dev.CauseBusy(), dev.RelCounts(), dev.Geometry().Chips()
	default:
		return c, 0, fmt.Errorf("host %T exposes no known device", h)
	}
	for i, b := range busy {
		c.Busy[i] = int64(b)
	}
	return c, chips, nil
}

// diff returns after-before for a struct whose fields are integers or
// arrays of integers (ftl.Stats, rel.Counts, deviceCounts).
func diff[T any](after, before T) T {
	d := after
	dv, bv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(before)
	var sub func(d, b reflect.Value)
	sub = func(d, b reflect.Value) {
		switch d.Kind() {
		case reflect.Int, reflect.Int64:
			d.SetInt(d.Int() - b.Int())
		case reflect.Array:
			for i := 0; i < d.Len(); i++ {
				sub(d.Index(i), b.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < d.NumField(); i++ {
				sub(d.Field(i), b.Field(i))
			}
		default:
			panic(fmt.Sprintf("diff: unsupported field kind %v", d.Kind()))
		}
	}
	sub(dv, bv)
	return d
}

// simResult is everything a run produces in simulated time. Each field is a
// pure function of the workload config and seed, so the determinism guard
// compares whole values with ==.
type simResult struct {
	IOPS                 float64
	ReadMean, ReadP999   float64 // µs
	WriteMean, WriteP999 float64 // µs, to the last page program
	// FailedReads are host read pages that returned data loss: mapped
	// pages the FTL did not count as served.
	FailedReads                 int64
	ReadSamples, WriteSamples   int64
	BufferStallUS               float64 // sum over writes of ack - arrival
	ReadRequests, WriteRequests int64
	TrimRequests                int64
	ReadPages, WritePages       int64
	Span                        sim.Time // first arrival to last completion
	Stats                       ftl.Stats
	Device                      deviceCounts
	Chips                       int
	WearSpread                  float64
	MappingHash                 uint64
}

func (s simResult) waf() float64 {
	return float64(s.Stats.TotalPrograms()) / float64(s.Stats.HostWrites)
}

// rep is one build, pre-wear, prefill, run and audit cycle.
type rep struct {
	mode                 repMode
	build, wear, prefill time.Duration
	run                  time.Duration
	// calSetup, calRun and calEnd are calibration kernel times taken
	// before the set-up, before Run and after Run.
	calSetup, calRun, calEnd time.Duration
	heapSetup, heapRun       uint64 // live heap after a forced GC
	allocs, allocBytes       uint64
	gcCycles                 uint32
	gcCPU, totalCPU          float64 // seconds, from runtime/metrics
	sim                      simResult
	spans                    *tracer // modeSpans only
	// reprogramUS is the recorder's two-phase reprogram blame: the extra
	// chip time of host MSB programs over LSB ones (modeRecorder only; the
	// device charges that time to host busy).
	reprogramUS int64
}

// setup is the host time of build, pre-wear, ssd.New and Prefill.
func (r *rep) setup() time.Duration { return r.build + r.wear + r.prefill }

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

type runtimeCounts struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeCounts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	return runtimeCounts{
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcCPU:      cpu[0].Value.Float64(),
		totalCPU:   cpu[1].Value.Float64(),
	}
}

// discardSink drops recorder events, so modeRecorder measures emission
// without serialization.
type discardSink struct{}

func (discardSink) WriteEvent(*obs.Event) error { return nil }
func (discardSink) Close() error                { return nil }

// preWear cycles every block of the host's MLC device n times through
// nand.Device.Erase. The blocks are all free, so only wear moves.
func preWear(h ftl.Host, n int) error {
	if n == 0 {
		return nil
	}
	d, ok := h.(interface{ Device() *nand.Device })
	if !ok {
		return fmt.Errorf("pre-wear needs an MLC device, %T has none", h)
	}
	dev := d.Device()
	g := dev.Geometry()
	for chip := 0; chip < g.Chips(); chip++ {
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			a := nand.BlockAddr{Chip: chip, Block: blk}
			for i := 0; i < n; i++ {
				if _, err := dev.Erase(a, 0); err != nil {
					return fmt.Errorf("pre-wear %v: %w", a, err)
				}
			}
		}
	}
	return nil
}

// system is a set-up SSD ready to run.
type system struct {
	host     ftl.Host
	sys      *ssd.System
	prefillT sim.Time
}

// setUp builds the scheme, pre-wears it and prefills it through the public
// layer calls, timing each step into r. A non-nil tracer wraps the host
// before the prefill, so prefill calls are traced too.
func setUp(c setupConfig, r *rep, tr *tracer) (*system, error) {
	t0 := time.Now()
	h, err := ftl.Build(c.Scheme, c.Env)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := preWear(h, c.PreWear); err != nil {
		return nil, err
	}
	t2 := time.Now()
	r.build, r.wear = t1.Sub(t0), t2.Sub(t1)
	if got, want := h.LogicalPages(), c.logicalPages(); got != want {
		return nil, fmt.Errorf("%s exposes %d logical pages, the trace was generated for %d", c.Scheme, got, want)
	}
	if tr != nil {
		if h, err = tr.wrap(h); err != nil {
			return nil, err
		}
	}
	sys, err := ssd.New(h, c.SSD)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.begin("prefill", nil)
	}
	prefillT, err := sys.Prefill()
	if tr != nil {
		tr.end()
	}
	if err != nil {
		return nil, err
	}
	r.prefill = time.Since(t2)
	return &system{host: h, sys: sys, prefillT: prefillT}, nil
}

// runRep performs one repetition in the given mode.
func runRep(c setupConfig, t *trace, mode repMode) (rep, error) {
	r := rep{mode: mode}
	runtime.GC() // each repetition starts from the same heap
	r.calSetup = calibrate()
	if mode == modeSpans {
		r.spans = newTracer()
	}
	s, err := setUp(c, &r, r.spans)
	if err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	var rec *obs.Recorder
	if mode == modeRecorder {
		rec = obs.NewRecorder(obs.Options{Sink: discardSink{}})
		s.sys.SetRecorder(rec)
	}
	r.heapSetup = liveHeap()

	before, _, err := probeDevice(s.host)
	if err != nil {
		return r, err
	}
	st0 := s.host.Stats()
	r.calRun = calibrate()
	rt0 := readRuntime()
	gen := &replay{name: c.Profile.Name, reqs: t.reqs}
	var res ssd.RunResult
	if tr := r.spans; tr != nil {
		tr.begin("run", &tr.run)
		res, err = s.sys.Run(tracedGen{gen, tr})
		r.run = tr.end()
	} else {
		start := time.Now()
		res, err = s.sys.Run(gen)
		r.run = time.Since(start)
	}
	rt1 := readRuntime()
	if err != nil {
		return r, fmt.Errorf("run: %w", err)
	}
	after, chips, err := probeDevice(s.host)
	if err != nil {
		return r, err
	}
	r.allocs, r.allocBytes = rt1.mallocs-rt0.mallocs, rt1.totalAlloc-rt0.totalAlloc
	r.gcCycles = rt1.numGC - rt0.numGC
	r.gcCPU, r.totalCPU = rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU
	r.heapRun = liveHeap()
	r.calEnd = calibrate()

	lat := res.Latency
	r.sim = simResult{
		IOPS:          res.Metrics.IOPS,
		ReadMean:      lat.Read.Mean,
		ReadP999:      lat.Read.P999,
		WriteMean:     lat.WriteFlush.Mean,
		WriteP999:     lat.WriteFlush.P999,
		ReadSamples:   lat.Read.Count,
		WriteSamples:  lat.WriteFlush.Count,
		BufferStallUS: math.Round(lat.WriteAck.Mean * float64(lat.WriteAck.Count)),
		ReadRequests:  res.Metrics.Reads,
		WriteRequests: res.Metrics.Writes,
		TrimRequests:  res.Metrics.Trims,
		ReadPages:     res.Metrics.PagesRead,
		WritePages:    res.Metrics.PagesWrit,
		Span:          res.Metrics.Makespan - s.prefillT,
		Stats:         diff(s.host.Stats(), st0),
		Device:        diff(after, before),
		Chips:         chips,
	}
	if ws, ok := s.host.(interface{ WearSpread() float64 }); ok {
		r.sim.WearSpread = ws.WearSpread()
	}
	mh, ok := s.host.(interface{ MappingHash() uint64 })
	if !ok {
		return r, fmt.Errorf("host %T has no MappingHash", s.host)
	}
	r.sim.MappingHash = mh.MappingHash()
	r.sim.FailedReads = t.failedReads(r.sim.Stats)
	if err := checkRun(r.sim, t); err != nil {
		return r, err
	}
	if rec != nil {
		reg := rec.Registry()
		r.reprogramUS = reg.Counter(obs.BlameCounterName(obs.CauseReprogram)).Value()
		if stall := reg.Counter(obs.BlameCounterName(obs.CauseBufferFull)).Value(); float64(stall) != r.sim.BufferStallUS {
			return r, fmt.Errorf("recorder blames %d µs on the full buffer, the write acks add up to %.0f", stall, r.sim.BufferStallUS)
		}
	}
	if err := audit(s.host, t.live, res.Metrics.Makespan); err != nil {
		return r, fmt.Errorf("read-back audit: %w", err)
	}
	return r, nil
}

// failedReads is the number of the trace's mapped read pages that the FTL
// did not count as served over a run with Stats difference st.
func (t *trace) failedReads(st ftl.Stats) int64 {
	return t.readPages - t.unmappedReads - st.HostReads
}

// checkRun cross-checks the run's counters against the trace it replayed.
func checkRun(s simResult, t *trace) error {
	switch {
	case s.ReadRequests+s.WriteRequests+s.TrimRequests != int64(len(t.reqs)):
		return fmt.Errorf("runner served %d requests, the trace has %d",
			s.ReadRequests+s.WriteRequests+s.TrimRequests, len(t.reqs))
	case s.WritePages != t.writePages || s.Stats.HostWrites != t.writePages:
		return fmt.Errorf("host writes: runner %d, FTL %d, trace %d", s.WritePages, s.Stats.HostWrites, t.writePages)
	case s.ReadPages != t.readPages:
		return fmt.Errorf("host reads: runner %d, trace %d", s.ReadPages, t.readPages)
	case s.FailedReads < 0 || s.FailedReads > s.Stats.UncorrectableReads:
		return fmt.Errorf("the FTL served %d host reads and lost %d pages, the trace reads %d mapped pages",
			s.Stats.HostReads, s.Stats.UncorrectableReads, t.readPages-t.unmappedReads)
	case s.Device.programs() != s.Stats.TotalPrograms():
		return fmt.Errorf("device programmed %d pages, the FTL accounts for %d", s.Device.programs(), s.Stats.TotalPrograms())
	}
	return nil
}
