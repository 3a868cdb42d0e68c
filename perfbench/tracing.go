package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"flexftl/internal/ftl"
	"flexftl/internal/ftl/nflex"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// callKind is a layer boundary the traced run times from the benchmark's
// side: each generator pull and each ftl.Host call the runner makes.
type callKind uint8

const (
	callNext callKind = iota
	callWrite
	callRead
	callTrim
	callIdle
	numCallKinds
)

var callNames = [numCallKinds]string{"workload.next", "ftl.write", "ftl.read", "ftl.trim", "ftl.idle"}

// maxChildSpans caps the raw child spans a tracer keeps under each root
// span; the Run span's totals count every call.
const maxChildSpans = 1 << 16

// span is one timed interval, in nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing root span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// callTotals sums the child spans of one root span by kind.
type callTotals struct {
	calls [numCallKinds]int64
	ns    [numCallKinds]int64
}

func (c *callTotals) childNS() int64 {
	var n int64
	for _, v := range c.ns {
		n += v
	}
	return n
}

// tracer records a root span around System.Prefill and System.Run and a
// child span around every call below them. Spans stay in memory until the
// benchmark writes them out at exit.
type tracer struct {
	epoch    time.Time
	spans    []span
	children int // raw child spans kept under the open root
	root     int // index of the open root span; -1 when none
	cur      *callTotals
	run      callTotals // every call under the Run span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), root: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a root span. Its children add to totals unless that is nil.
func (t *tracer) begin(name string, totals *callTotals) {
	t.root, t.children, t.cur = len(t.spans), 0, totals
	t.spans = append(t.spans, span{Name: name, Parent: -1, Start: t.now()})
}

// end closes the open root span and returns its duration.
func (t *tracer) end() time.Duration {
	s := &t.spans[t.root]
	s.End = t.now()
	t.root, t.cur = -1, nil
	return time.Duration(s.End - s.Start)
}

// child records a call of kind k that started at start. Calls outside a
// root span (the read-back audit) are not traced.
func (t *tracer) child(k callKind, start int64) {
	if t.root < 0 {
		return
	}
	end := t.now()
	if t.cur != nil {
		t.cur.calls[k]++
		t.cur.ns[k] += end - start
	}
	if t.children < maxChildSpans {
		t.children++
		t.spans = append(t.spans, span{Name: callNames[k], Parent: t.root, Start: start, End: end})
	}
}

// wrap returns h with every Host call traced. The wrapper embeds the
// scheme's concrete type, so the runner's optional-interface assertions
// (ResetCounters, Device, WearSpread, Quota, ...) still resolve.
func (t *tracer) wrap(h ftl.Host) (ftl.Host, error) {
	switch f := h.(type) {
	case *ftl.Kernel:
		return &tracedKernel{f, t}, nil
	case *nflex.FTL:
		return &tracedNflex{f, t}, nil
	}
	return nil, fmt.Errorf("no traced wrapper for %T", h)
}

type tracedKernel struct {
	*ftl.Kernel
	tr *tracer
}

func (h *tracedKernel) Write(lpn ftl.LPN, now sim.Time, util float64) (sim.Time, error) {
	s := h.tr.now()
	done, err := h.Kernel.Write(lpn, now, util)
	h.tr.child(callWrite, s)
	return done, err
}

func (h *tracedKernel) Read(lpn ftl.LPN, now sim.Time) (sim.Time, error) {
	s := h.tr.now()
	done, err := h.Kernel.Read(lpn, now)
	h.tr.child(callRead, s)
	return done, err
}

func (h *tracedKernel) Trim(lpn ftl.LPN, now sim.Time) (sim.Time, error) {
	s := h.tr.now()
	done, err := h.Kernel.Trim(lpn, now)
	h.tr.child(callTrim, s)
	return done, err
}

func (h *tracedKernel) Idle(now, until sim.Time) {
	s := h.tr.now()
	h.Kernel.Idle(now, until)
	h.tr.child(callIdle, s)
}

type tracedNflex struct {
	*nflex.FTL
	tr *tracer
}

func (h *tracedNflex) Write(lpn ftl.LPN, now sim.Time, util float64) (sim.Time, error) {
	s := h.tr.now()
	done, err := h.FTL.Write(lpn, now, util)
	h.tr.child(callWrite, s)
	return done, err
}

func (h *tracedNflex) Read(lpn ftl.LPN, now sim.Time) (sim.Time, error) {
	s := h.tr.now()
	done, err := h.FTL.Read(lpn, now)
	h.tr.child(callRead, s)
	return done, err
}

func (h *tracedNflex) Trim(lpn ftl.LPN, now sim.Time) (sim.Time, error) {
	s := h.tr.now()
	done, err := h.FTL.Trim(lpn, now)
	h.tr.child(callTrim, s)
	return done, err
}

func (h *tracedNflex) Idle(now, until sim.Time) {
	s := h.tr.now()
	h.FTL.Idle(now, until)
	h.tr.child(callIdle, s)
}

// tracedGen times each pull from the replayed trace.
type tracedGen struct {
	*replay
	tr *tracer
}

func (g tracedGen) Next() (workload.Request, bool) {
	s := g.tr.now()
	r, ok := g.replay.Next()
	g.tr.child(callNext, s)
	return r, ok
}

// writeSpans writes the raw spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
