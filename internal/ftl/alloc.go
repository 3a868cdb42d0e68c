package ftl

import (
	"fmt"

	"flexftl/internal/obs"
	"flexftl/internal/sim"
)

// Pref is a page-type preference an allocation policy hands to the order
// policy. Order policies that control placement themselves (the strict FPS
// cursor) ignore it; the others map it onto LSB/MSB page choice.
type Pref int

const (
	// PrefOrder defers entirely to the order policy's own sequence.
	PrefOrder Pref = iota
	// PrefFast asks for a fast (LSB) page.
	PrefFast
	// PrefSlow asks for a slow (MSB) page.
	PrefSlow
)

// FlexParams are the adaptive-allocation policy knobs of Section 3.2 (the
// paper's u/q policy manager), shared by flexFTL and any hybrid that mounts
// the adaptive allocator.
type FlexParams struct {
	// UHigh and ULow are the write-buffer utilization thresholds. Above
	// UHigh the policy prefers LSB writes (while q > 0); below ULow it
	// prefers MSB writes; in between it alternates.
	UHigh, ULow float64
	// QuotaFraction sets the initial LSB quota q as a fraction of the
	// device's total LSB pages. The paper uses 5%.
	QuotaFraction float64
	// BGCCopyLSB is an ablation switch: when set, the background garbage
	// collector relocates valid pages through LSB pages instead of MSB
	// pages, forfeiting the quota-replenishing effect of Section 3.2. The
	// ablation benchmarks use it to quantify that design choice.
	BGCCopyLSB bool
	// PredictiveBGC enables the Section 6 extension: an EWMA future-write
	// predictor sizes the background collector's reclaim target so the
	// next burst's predicted volume fits in free fast capacity, instead of
	// stopping at the fixed free-space cushion.
	PredictiveBGC bool
	// PredictorAlpha is the EWMA smoothing factor (default 0.3).
	PredictorAlpha float64
}

// DefaultFlexParams mirrors the paper's evaluation settings: uhigh=80%,
// ulow=10%, q0 = 5% of total LSB pages.
func DefaultFlexParams() FlexParams {
	return FlexParams{UHigh: 0.8, ULow: 0.1, QuotaFraction: 0.05, PredictorAlpha: 0.3}
}

// Validate rejects inconsistent parameters.
func (p FlexParams) Validate() error {
	if p.ULow < 0 || p.UHigh > 1 || p.ULow >= p.UHigh {
		return fmt.Errorf("ftl: need 0 <= ulow < uhigh <= 1, got %v/%v", p.ULow, p.UHigh)
	}
	if p.QuotaFraction <= 0 || p.QuotaFraction > 1 {
		return fmt.Errorf("ftl: quota fraction %v outside (0,1]", p.QuotaFraction)
	}
	return nil
}

// AllocPolicy decides the page-type preference of every program: the host
// write path asks chooseHost (with the write-buffer utilization), GC
// relocations ask chooseGC, and onProgram observes every data program for
// quota accounting. The interface is sealed — implementations live in this
// package and are obtained from FixedAllocPolicy / AdaptiveAllocPolicy.
type AllocPolicy interface {
	init(k *Kernel) error
	chooseHost(k *Kernel, chip int, util float64, now sim.Time) Pref
	chooseGC(k *Kernel, chip int) Pref
	onProgram(k *Kernel, isLSB, fromGC bool)
}

// FixedAllocPolicy returns the trivial allocator: host writes and GC
// relocations each carry a fixed preference (pageFTL/parityFTL defer to the
// program order; rtfFTL prefers fast pages for hosts and slow pages for the
// return-to-fast drain).
func FixedAllocPolicy(host, gc Pref) AllocPolicy {
	return &fixedAlloc{host: host, gc: gc}
}

type fixedAlloc struct {
	host, gc Pref
}

func (a *fixedAlloc) init(*Kernel) error { return nil }

func (a *fixedAlloc) chooseHost(*Kernel, int, float64, sim.Time) Pref { return a.host }

func (a *fixedAlloc) chooseGC(*Kernel, int) Pref { return a.gc }

func (a *fixedAlloc) onProgram(*Kernel, bool, bool) {}

// AdaptiveAllocPolicy returns the Section 3.2 policy manager: LSB/MSB choice
// from the write-buffer utilization u and the global LSB quota q, with
// background-GC relocations replenishing q.
func AdaptiveAllocPolicy(p FlexParams) AllocPolicy {
	return &adaptiveAlloc{p: p}
}

type adaptiveAlloc struct {
	p      FlexParams
	q      int64  // LSB quota (global, like the paper's single q)
	q0     int64  // initial quota, for observability
	toggle []bool // per-chip alternation state for the mid-utilization band
}

func (a *adaptiveAlloc) init(k *Kernel) error {
	if err := a.p.Validate(); err != nil {
		return err
	}
	g := k.Dev.Geometry()
	totalLSB := int64(g.TotalBlocks()) * int64(g.LSBPagesPerBlock())
	a.q = int64(a.p.QuotaFraction * float64(totalLSB))
	if a.q < 1 {
		a.q = 1
	}
	a.q0 = a.q
	a.toggle = make([]bool, g.Chips())
	return nil
}

// chooseHost implements the Section 3.2 policy table.
func (a *adaptiveAlloc) chooseHost(k *Kernel, chip int, util float64, now sim.Time) Pref {
	useLSB := a.choose(k, chip, util)
	if k.Obs != nil {
		lsb := int64(0)
		if useLSB {
			lsb = 1
		}
		k.Obs.Instant(obs.KindPolicy, int32(chip), now, lsb, a.q)
	}
	if useLSB {
		return PrefFast
	}
	return PrefSlow
}

func (a *adaptiveAlloc) choose(k *Kernel, chip int, util float64) bool {
	// Corner case (footnote 1): with no slow block MSB pages do not exist.
	if !k.ord.slowAvailable(k, chip) {
		return true
	}
	// Drain mode: with no fast capacity left beyond the GC reserve, spend
	// MSB pages — they consume no free blocks, and completing slow blocks
	// feeds the GC candidate list.
	if k.ord.fastBudget(k, chip) <= 0 {
		return false
	}
	alternate := func() bool {
		a.toggle[chip] = !a.toggle[chip]
		return a.toggle[chip]
	}
	switch {
	case util > a.p.UHigh:
		// Condition [C2] of Section 3.2: successive LSB writes must not
		// degrade future bandwidth, so bursts spend LSB pages only while
		// the quota lasts.
		if a.q > 0 {
			return true
		}
		return alternate()
	case util < a.p.ULow:
		return false
	default:
		return alternate()
	}
}

// chooseGC implements the Section 3.2 relocation rule: the background
// collector copies through MSB pages (raising q); foreground collections
// alternate page types instead, to keep the two-phase balance.
func (a *adaptiveAlloc) chooseGC(k *Kernel, chip int) Pref {
	if k.inBGC {
		if a.p.BGCCopyLSB { // ablation: default false = MSB copies
			return PrefFast
		}
		return PrefSlow
	}
	a.toggle[chip] = !a.toggle[chip]
	if a.toggle[chip] {
		return PrefFast
	}
	return PrefSlow
}

// onProgram does the quota accounting: host writes always move q; GC
// relocations only when running in background (Section 3.2 credits q
// increases to the *background* collector). MSB programs replenish q, but
// never beyond its initial budget — otherwise long idle phases would bank an
// unbounded LSB surplus whose blocks carry GC-filled (cold, long-valid) MSB
// halves, putting a floor under every future victim's valid count.
func (a *adaptiveAlloc) onProgram(k *Kernel, isLSB, fromGC bool) {
	if isLSB {
		if !fromGC || k.inBGC {
			a.q--
		}
		return
	}
	if (!fromGC || k.inBGC) && a.q < a.q0 {
		a.q++
	}
}
