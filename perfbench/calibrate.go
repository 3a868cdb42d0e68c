package main

import (
	"sort"
	"time"
)

// A shared VM can change speed by up to 2x for seconds or minutes at a
// time (measured on a 2-core Xeon VM). A fixed kernel timed right before
// and right after each timed interval runs at the same changing speed, so a
// host time divided by the kernel's time, times calibRef, is the time the
// interval would take on a host where the kernel takes calibRef. End-to-end
// host metrics report these scaled times; the raw wall-clock times and the
// kernel's time are per-layer metrics.
//
// The kernel does map updates, random reads and writes over a 2 MiB table
// and sorting, which is the mix of work the simulator does. It allocates
// nothing, so the Go heap the simulator leaves behind cannot change its
// time, and it belongs to the benchmark, so no change to the simulator
// changes it either.

// calibRef is the kernel time the scaled host times are relative to.
const calibRef = 20 * time.Millisecond

// calibIters is the kernel's length, about calibRef on a 2-core Xeon VM in
// its fast state.
const calibIters = 230_000

const (
	calKeys  = 1 << 14
	calTable = 1 << 18
	calSort  = 2048
)

// calibState is the kernel's working set, built once.
type calibState struct {
	keys  []uint32
	m     map[uint32]uint64
	table []uint64
	sort  []float64
	sink  uint64
}

var calib = newCalibState()

func newCalibState() *calibState {
	c := &calibState{
		keys:  make([]uint32, calKeys),
		m:     make(map[uint32]uint64, calKeys),
		table: make([]uint64, calTable),
		sort:  make([]float64, calSort),
	}
	for i := range c.keys {
		c.keys[i] = uint32(i) * 2654435761
		c.m[c.keys[i]] = uint64(i)
	}
	return c
}

// calibrate runs the kernel once and returns how long it took.
func calibrate() time.Duration {
	c := calib
	start := time.Now()
	x := uint64(88172645463325252)
	var s uint64
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.m[c.keys[x&(calKeys-1)]] += x
		j := (x >> 20) & (calTable - 1)
		c.table[j] += s
		s += c.table[(j*31)&(calTable-1)]
		c.sort[i&(calSort-1)] = float64(x>>11) / (1 << 53)
		if i&(calSort-1) == calSort-1 {
			sort.Float64s(c.sort)
			s += uint64(c.sort[calSort/2] * 1000)
		}
	}
	c.sink += s
	return time.Since(start)
}

// scaled converts a host time measured between two kernel runs to the time
// at calibRef.
func scaled(d, before, after time.Duration) float64 {
	return d.Seconds() * calibRef.Seconds() / ((before + after).Seconds() / 2)
}
