package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/nandn"
	"flexftl/internal/rel"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// workloadSpec is one named benchmark workload: the scheme and device it
// builds, how the device is aged before the run, and the trace it replays.
type workloadSpec struct {
	Name     string
	Scheme   string
	Geometry nand.Geometry // MLC schemes; nflexTLC brings nandn.TLCGeometry()
	Profile  workload.Profile
	Requests int
	// PreWear erases every block this many times before the prefill.
	PreWear int
	// Reliability mounts rel.DefaultConfig on the device and turns on
	// ftl.DefaultRelPolicy in the kernel.
	Reliability bool
}

// workloads lists the benchmark workloads; README.md gives why each was
// chosen.
var workloads = []workloadSpec{
	{
		Name:     "ntrx-gc",
		Scheme:   "flexFTL",
		Geometry: experiments.EvalGeometry(),
		Profile:  workload.NTRX(),
		Requests: 800_000,
	},
	{
		Name:        "webserver-rel",
		Scheme:      "flexFTL",
		Geometry:    experiments.EvalGeometry(),
		Profile:     workload.Webserver(),
		Requests:    100_000,
		PreWear:     6000,
		Reliability: true,
	},
	{
		Name:     "paper-16g",
		Scheme:   "flexFTL",
		Geometry: nand.DefaultGeometry(),
		Profile:  workload.OLTP(),
		Requests: 1_200_000,
	},
	{
		Name:     "tlc-webserver",
		Scheme:   "nflexTLC",
		Profile:  workload.Webserver(),
		Requests: 300_000,
	},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// setupConfig is everything that defines a workload's simulated inputs at
// one seed. Its JSON encoding is canonical (struct fields in declaration
// order), so its hash identifies comparable outputs.
type setupConfig struct {
	Workload    string
	Scheme      string
	Env         ftl.BuildEnv
	TLCGeometry *nandn.Geometry `json:",omitempty"`
	PreWear     int
	SSD         ssd.Config
	Profile     workload.Profile
	Requests    int
	Seed        uint64
}

func newSetupConfig(w workloadSpec, seed uint64) setupConfig {
	c := setupConfig{
		Workload: w.Name,
		Scheme:   w.Scheme,
		Env: ftl.BuildEnv{
			Geometry: w.Geometry,
			Config:   ftl.DefaultConfig(),
			Flex:     ftl.DefaultFlexParams(),
		},
		PreWear:  w.PreWear,
		SSD:      ssd.DefaultConfig(),
		Profile:  w.Profile,
		Requests: w.Requests,
		Seed:     seed,
	}
	if w.Scheme == "nflexTLC" {
		g := nandn.TLCGeometry()
		c.TLCGeometry = &g
		c.Env.Geometry = nand.Geometry{}
	}
	if w.Reliability {
		rc := rel.DefaultConfig(seed)
		c.Env.Reliability = &rc
		c.Env.Config.Reliability = ftl.DefaultRelPolicy()
	}
	return c
}

// geometry names the simulated device.
func (c setupConfig) geometry() string {
	if c.TLCGeometry != nil {
		return c.TLCGeometry.String()
	}
	return c.Env.Geometry.String()
}

// logicalPages is the host address space the scheme will expose; the
// set-up checks the built host against it.
func (c setupConfig) logicalPages() int64 {
	if c.TLCGeometry != nil {
		return int64(float64(c.TLCGeometry.TotalPages()) * (1 - c.Env.Config.OPFraction))
	}
	return c.Env.Config.LogicalPages(c.Env.Geometry)
}

// prefillPages is how many pages System.Prefill writes (LPNs 0..n-1).
func (c setupConfig) prefillPages() int64 {
	return int64(float64(c.logicalPages()) * c.SSD.PrefillFraction)
}

func (c setupConfig) hash() (string, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("encode workload config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// trace is a workload's generated request stream plus what the benchmark
// derives from it before any timing starts.
type trace struct {
	reqs    []workload.Request
	genTime time.Duration
	// Page operations by kind, as the runner splits requests into pages.
	readPages, writePages, trimPages int64
	reads                            int64
	// unmappedReads are read pages of LPNs that hold no data when the
	// read arrives; the FTL answers them with ErrUnmapped.
	unmappedReads int64
	// live marks the logical pages that must hold data after the prefill
	// and the trace; the read-back audit checks every page against it.
	live []bool
}

// generate draws the workload's requests from its profile and seed.
func generate(c setupConfig) (*trace, error) {
	logical := c.logicalPages()
	start := time.Now()
	gen, err := workload.New(c.Profile, logical, c.Requests, c.Seed)
	if err != nil {
		return nil, err
	}
	reqs := make([]workload.Request, 0, c.Requests)
	for {
		r, ok := gen.Next()
		if !ok {
			break
		}
		reqs = append(reqs, r)
	}
	t := &trace{reqs: reqs, genTime: time.Since(start), live: make([]bool, logical)}
	for lpn := int64(0); lpn < c.prefillPages(); lpn++ {
		t.live[lpn] = true
	}
	// The runner serves requests in order and wraps extents at the end of
	// the address space.
	for _, r := range reqs {
		n := int64(r.Pages)
		switch r.Op {
		case workload.OpRead:
			t.reads++
			t.readPages += n
		case workload.OpWrite:
			t.writePages += n
		case workload.OpTrim:
			t.trimPages += n
		}
		for p := int64(0); p < n; p++ {
			lpn := (r.Page + p) % logical
			if r.Op == workload.OpRead {
				if !t.live[lpn] {
					t.unmappedReads++
				}
				continue
			}
			t.live[lpn] = r.Op == workload.OpWrite
		}
	}
	return t, nil
}

// pages is the number of host page operations in the trace.
func (t *trace) pages() int64 { return t.readPages + t.writePages + t.trimPages }

// replay feeds a generated trace to the runner.
type replay struct {
	name string
	reqs []workload.Request
	next int
}

func (r *replay) Name() string { return r.name }

func (r *replay) Next() (workload.Request, bool) {
	if r.next == len(r.reqs) {
		return workload.Request{}, false
	}
	r.next++
	return r.reqs[r.next-1], true
}
