package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// provenance says where and on what an output was measured.
type provenance struct {
	Revision   string `json:"revision"`
	Dirty      string `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Workload   string `json:"workload"`
	Scheme     string `json:"scheme"`
	Geometry   string `json:"geometry"`
	Seed       uint64 `json:"seed"`
	PreWear    int    `json:"pre_wear"`
	Requests   int    `json:"requests"`
	Traced     bool   `json:"traced"`
	ConfigHash string `json:"config_hash"`
}

func newProvenance(c setupConfig, traced bool) (provenance, error) {
	h, err := c.hash()
	if err != nil {
		return provenance{}, err
	}
	p := provenance{
		Revision:   "unknown",
		Dirty:      "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Workload:   c.Workload,
		Scheme:     c.Scheme,
		Geometry:   c.geometry(),
		Seed:       c.Seed,
		PreWear:    c.PreWear,
		Requests:   c.Requests,
		Traced:     traced,
		ConfigHash: h,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	return p, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// compareCmd prints the metric-by-metric change from one result file to
// another. It refuses outputs whose workload configs differ.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var a, b result
	for i, r := range []*result{&a, &b} {
		raw, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(raw, r)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", args[i], err)
			return 2
		}
	}
	pa, pb := a.Provenance, b.Provenance
	if pa.ConfigHash != pb.ConfigHash || pa.Traced != pb.Traced {
		fmt.Fprintf(stderr, "perfbench compare: refusing to compare %s (%s seed %d, config %s, traced %v) with %s (%s seed %d, config %s, traced %v)\n",
			args[0], pa.Workload, pa.Seed, pa.ConfigHash, pa.Traced, args[1], pb.Workload, pb.Seed, pb.ConfigHash, pb.Traced)
		return 1
	}
	fmt.Fprintf(stdout, "%s seed %d config %s: %s (dirty %s, %s) -> %s (dirty %s, %s)\n",
		pa.Workload, pa.Seed, pa.ConfigHash, pa.Revision, pa.Dirty, pa.CPU, pb.Revision, pb.Dirty, pb.CPU)
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		va, vb := a.Metrics[n], b.Metrics[n]
		change := "same"
		if _, ok := b.Metrics[n]; !ok {
			change = "missing"
		} else if va.Value != vb.Value {
			change = fmt.Sprintf("%+.2f%%", 100*(vb.Value-va.Value)/math.Abs(va.Value))
		}
		fmt.Fprintf(stdout, "%-30s %16.6g %16.6g %-8s %s\n", n, va.Value, vb.Value, va.Unit, change)
	}
	return 0
}
