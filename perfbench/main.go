// Command perfbench is flexftl's benchmark: it builds one named workload's
// simulated SSD through the public layer calls (ftl.Build, pre-wear through
// nand.Device.Erase, ssd.New, System.Prefill, System.Run), replays a trace
// generated from the seed before timing starts, and reports host-time and
// simulated-time metrics. Every repetition passes a read-back audit, and
// every simulated result must repeat exactly. See README.md.
//
//	perfbench --workload ntrx-gc --seed 1 --seconds 20 --trace 0
//	perfbench compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measure for this long, with at least a minimum number of repetitions")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the result file and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || fs.NArg() > 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 (%v)\n", err)
		return 2
	}
	// One simulator goroutine; the collector shares its core.
	runtime.GOMAXPROCS(1)

	res, spans, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		if res == nil {
			return 1
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", w.Name, *seed, *traceMode))
	if spans != nil {
		if err := writeSpans(base+".spans.jsonl", spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
	}
	if err := writeJSON(base+".json", res); err != nil {
		fmt.Fprintf(stderr, "perfbench: write result: %v\n", err)
		return 1
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// minReps is the fewest repetitions of each mode a run makes, so every
// host-time metric is a median over at least this many samples.
const (
	minReps       = 5
	minTracedReps = 3
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's output. The last line of stdout is the
// correct/attempted/failed/metrics subset; the result file holds it all.
type result struct {
	Provenance provenance             `json:"provenance"`
	Reps       map[string]int         `json:"reps"`
	Errors     []string               `json:"errors,omitempty"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	// Moves gives, for each per-layer metric, the end-to-end metric it
	// should move.
	Moves map[string]string `json:"moves,omitempty"`
	order []metricDef
}

// bench runs one workload at one seed for the given time and returns its
// result, and with tracing the raw spans of the last traced repetition. An
// error with a non-nil result means the output is wrong.
func bench(w workloadSpec, seed uint64, budget time.Duration, traced bool) (*result, []span, error) {
	cfg := newSetupConfig(w, seed)
	prov, err := newProvenance(cfg, traced)
	if err != nil {
		return nil, nil, err
	}
	t, err := generate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("generate trace: %w", err)
	}
	s := &summary{cfg: cfg, trace: t, baseHeap: liveHeap()}
	res := &result{Provenance: prov, Reps: map[string]int{}, Metrics: map[string]metricValue{}, order: endToEnd}
	modes, reps := []repMode{modePlain}, minReps
	if traced {
		modes, reps = []repMode{modePlain, modeSpans, modeRecorder}, minTracedReps
		res.order = perLayer
		res.Moves = map[string]string{}
	}

	deadline := time.Now().Add(budget)
	for i := 0; i < reps*len(modes) || time.Now().Before(deadline); i++ {
		mode := modes[i%len(modes)]
		r, err := runRep(cfg, t, mode)
		res.Attempted += t.pages()
		if err != nil {
			res.Failed += t.pages()
			res.Errors = append(res.Errors, fmt.Sprintf("repetition %d: %v", i, err))
			break
		}
		res.Failed += r.sim.FailedReads
		switch mode {
		case modePlain:
			s.plain = append(s.plain, r)
		case modeSpans:
			s.spans = append(s.spans, r)
			if err := checkSpans(&r, t); err != nil {
				res.Errors = append(res.Errors, fmt.Sprintf("repetition %d: %v", i, err))
			}
		case modeRecorder:
			if len(s.recorder) > 0 && r.reprogramUS != s.recorder[0].reprogramUS {
				res.Errors = append(res.Errors, fmt.Sprintf("determinism: repetition %d blamed %d µs on reprograms, the first recorder run %d",
					i, r.reprogramUS, s.recorder[0].reprogramUS))
			}
			s.recorder = append(s.recorder, r)
		}
		if i == 0 {
			s.sim = r.sim
		} else if r.sim != s.sim {
			res.Errors = append(res.Errors, fmt.Sprintf(
				"determinism: repetition %d (%s) simulated %+v, repetition 0 simulated %+v", i, modeName(mode), r.sim, s.sim))
		}
	}
	res.Reps["plain"], res.Reps["spans"], res.Reps["recorder"] = len(s.plain), len(s.spans), len(s.recorder)
	if len(res.Errors) == 0 {
		if err := checkSampleSizes(s.sim); err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	res.Correct = len(res.Errors) == 0
	if len(s.plain)+len(s.spans)+len(s.recorder) > 0 {
		for _, m := range res.order {
			res.Metrics[m.name] = metricValue{Value: m.value(s), Unit: m.unit}
			if res.Moves != nil {
				res.Moves[m.name] = m.moves
			}
		}
	}
	var spans []span
	if n := len(s.spans); n > 0 {
		spans = s.spans[n-1].spans.spans
	}
	if !res.Correct {
		return res, spans, errors.New(res.Errors[0])
	}
	return res, spans, nil
}

func modeName(m repMode) string {
	return [...]string{"plain", "spans", "recorder"}[m]
}

// minTailSamples is the fewest samples a latency class needs so its p99.9
// has at least ten samples beyond it.
const minTailSamples = 10_000

func checkSampleSizes(s simResult) error {
	if s.ReadSamples < minTailSamples || s.WriteSamples < minTailSamples {
		return fmt.Errorf("p99.9 needs %d samples per class: %d reads, %d writes",
			minTailSamples, s.ReadSamples, s.WriteSamples)
	}
	return nil
}

// checkSpans checks that the traced run saw every call the runner made and
// that its child spans fit inside the Run span.
func checkSpans(r *rep, t *trace) error {
	tot := &r.spans.run
	switch {
	case tot.calls[callNext] != int64(len(t.reqs))+1:
		return fmt.Errorf("trace saw %d generator pulls for %d requests", tot.calls[callNext], len(t.reqs))
	case tot.calls[callWrite] != t.writePages:
		return fmt.Errorf("trace saw %d writes, the trace has %d write pages", tot.calls[callWrite], t.writePages)
	case tot.calls[callRead] != t.readPages:
		return fmt.Errorf("trace saw %d reads, the trace has %d read pages", tot.calls[callRead], t.readPages)
	case tot.childNS() > r.run.Nanoseconds():
		return fmt.Errorf("child spans cover %d ns of a %d ns Run span", tot.childNS(), r.run.Nanoseconds())
	}
	return nil
}

// printResult writes the human-readable report, then the result line.
func printResult(w io.Writer, res *result) {
	p, _ := json.Marshal(res.Provenance) // plain struct of strings and numbers
	fmt.Fprintf(w, "provenance %s\n", p)
	fmt.Fprintf(w, "repetitions %v\n", res.Reps)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "ERROR %s\n", e)
	}
	for _, m := range res.order {
		v, ok := res.Metrics[m.name]
		if !ok {
			continue
		}
		note := m.better
		if m.moves != "" {
			note = "moves " + m.moves
		}
		fmt.Fprintf(w, "%-30s %16.6g %-8s %s\n", m.name, v.Value, v.Unit, note)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
