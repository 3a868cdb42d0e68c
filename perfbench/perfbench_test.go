package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/workload"
)

// tinyWorkload is a small flexFTL workload that reaches GC, trims and idle
// windows in a fraction of a second, with enough reads and writes for the
// tail-sample check.
func tinyWorkload() workloadSpec {
	return workloadSpec{
		Name:     "tiny",
		Scheme:   "flexFTL",
		Geometry: nand.TestGeometry(),
		Profile:  workload.Varmail(),
		Requests: 25000,
	}
}

// runOnce sets up the workload and runs its trace once, returning the
// running system for the caller to audit.
func runOnce(t *testing.T, w workloadSpec) (*system, *trace) {
	t.Helper()
	c := newSetupConfig(w, 1)
	tr, err := generate(c)
	if err != nil {
		t.Fatal(err)
	}
	var r rep
	s, err := setUp(c, &r, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.sys.Run(&replay{reqs: tr.reqs})
	if err != nil {
		t.Fatal(err)
	}
	if err := audit(s.host, tr.live, res.Metrics.Makespan); err != nil {
		t.Fatalf("audit of a clean run: %v", err)
	}
	return s, tr
}

func TestAuditCatchesCorruptPage(t *testing.T) {
	s, tr := runOnce(t, tinyWorkload())
	k := kernelOf(s.host)
	lpn := ftl.LPN(-1)
	for i, live := range tr.live {
		if live {
			lpn = ftl.LPN(i)
			break
		}
	}
	ppn, ok := k.Map.Lookup(lpn)
	if !ok {
		t.Fatalf("live LPN %d is unmapped", lpn)
	}
	dev := k.Device()
	if err := dev.CorruptPage(dev.Geometry().AddrOfPPN(ppn)); err != nil {
		t.Fatal(err)
	}
	err := audit(s.host, tr.live, 0)
	if err == nil {
		t.Fatal("audit passed over a corrupted live page")
	}
	t.Log(err)
}

func TestAuditCatchesMisdirectedMapping(t *testing.T) {
	s, tr := runOnce(t, tinyWorkload())
	k := kernelOf(s.host)
	var live []ftl.LPN
	for i, ok := range tr.live {
		if ok && len(live) < 2 {
			live = append(live, ftl.LPN(i))
		}
	}
	// Swap the two LPNs' pages: both still read without error, so only the
	// token check can tell.
	a, _ := k.Map.Lookup(live[0])
	b, _ := k.Map.Lookup(live[1])
	k.Map.Invalidate(live[0])
	k.Map.Invalidate(live[1])
	k.Map.Update(live[0], b)
	k.Map.Update(live[1], a)
	err := audit(s.host, tr.live, 0)
	if err == nil || !strings.Contains(err.Error(), "token") {
		t.Fatalf("audit over a misdirected mapping: %v", err)
	}
	t.Log(err)
}

func TestAuditCatchesWrongLiveness(t *testing.T) {
	s, tr := runOnce(t, tinyWorkload())
	for i := range tr.live {
		tr.live[i] = !tr.live[i]
		err := audit(s.host, tr.live, 0)
		tr.live[i] = !tr.live[i]
		if err == nil {
			t.Fatalf("audit passed with LPN %d's liveness flipped", i)
		}
		if i > 8 {
			break
		}
	}
}

func TestAuditNflex(t *testing.T) {
	w := tinyWorkload()
	w.Scheme, w.Geometry, w.Requests = "nflexTLC", nand.Geometry{}, 20000
	runOnce(t, w)
}

// TestFailedReadsCountHostLosses loses the pages of a run of prefilled
// LPNs before the run: the host reads of them fail, and FailedReads counts
// exactly those.
func TestFailedReadsCountHostLosses(t *testing.T) {
	c := newSetupConfig(tinyWorkload(), 1)
	tr, err := generate(c)
	if err != nil {
		t.Fatal(err)
	}
	var r rep
	s, err := setUp(c, &r, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := kernelOf(s.host)
	dev := k.Device()
	for lpn := ftl.LPN(0); int64(lpn) < c.prefillPages()/2; lpn++ {
		ppn, ok := k.Map.Lookup(lpn)
		if !ok {
			t.Fatalf("prefilled LPN %d is unmapped", lpn)
		}
		if err := dev.MarkLost(dev.Geometry().AddrOfPPN(ppn)); err != nil {
			t.Fatal(err)
		}
	}
	st0 := s.host.Stats()
	if _, err := s.sys.Run(&replay{reqs: tr.reqs}); err != nil {
		t.Fatal(err)
	}
	st := diff(s.host.Stats(), st0)
	got := tr.failedReads(st)
	if got == 0 || got != st.UncorrectableReads {
		t.Fatalf("%d failed reads, the FTL lost %d", got, st.UncorrectableReads)
	}
	t.Logf("%d host reads failed", got)
}

func TestBenchReportsEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res, spans, err := bench(tinyWorkload(), 1, 0, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		want := endToEnd
		if traced {
			want = perLayer
			if len(spans) == 0 {
				t.Error("traced run kept no spans")
			}
		}
		for _, m := range want {
			if _, ok := res.Metrics[m.name]; !ok {
				t.Errorf("traced=%v: metric %s missing", traced, m.name)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
		}
	}
}

// TestRunSpanKeepsChildren fills the raw-span cap during the prefill and
// checks that the Run span still gets its own child spans, and that only
// Run calls count in the Run totals.
func TestRunSpanKeepsChildren(t *testing.T) {
	tr := newTracer()
	tr.begin("prefill", nil)
	for i := 0; i < maxChildSpans+10; i++ {
		tr.child(callWrite, tr.now())
	}
	tr.end()
	tr.begin("run", &tr.run)
	run := len(tr.spans) - 1
	tr.child(callRead, tr.now())
	tr.end()
	if last := tr.spans[len(tr.spans)-1]; last.Parent != run || last.Name != "ftl.read" {
		t.Fatalf("last span %+v, want an ftl.read child of span %d", last, run)
	}
	if tr.run.calls[callWrite] != 0 || tr.run.calls[callRead] != 1 {
		t.Fatalf("run totals %v", tr.run.calls)
	}
}

func TestDeterminismAcrossModes(t *testing.T) {
	c := newSetupConfig(tinyWorkload(), 3)
	tr, err := generate(c)
	if err != nil {
		t.Fatal(err)
	}
	var first simResult
	for i, m := range []repMode{modePlain, modeSpans, modeRecorder, modePlain} {
		r, err := runRep(c, tr, m)
		if err != nil {
			t.Fatalf("%s: %v", modeName(m), err)
		}
		if i == 0 {
			first = r.sim
		} else if r.sim != first {
			t.Errorf("%s run simulated %+v, plain run %+v", modeName(m), r.sim, first)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step with
// the metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program prints %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if b := bj.EndToEnd[i]; b.Name != m.name || b.Unit != m.unit || b.Better != m.better {
			t.Errorf("end_to_end[%d] = %+v, program has %s %s %s", i, b, m.name, m.unit, m.better)
		}
	}
	for i, m := range perLayer {
		if b := bj.PerLayer[i]; b.Name != m.name || b.Unit != m.unit || b.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, b, m.name, m.unit, m.better)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, bj.Workloads[i].Name, w.Name)
		}
	}
}

// TestCalibrateAllocatesNothing keeps the calibration kernel independent of
// the heap the simulator leaves behind.
func TestCalibrateAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(2, func() { calibrate() }); n != 0 {
		t.Fatalf("calibrate allocates %v times per run", n)
	}
}
