package ftl

import (
	"fmt"

	"flexftl/internal/sim"
)

// PlacementPolicy is the kernel's fourth axis: it owns destination-block
// choice for data programs. The order policy still decides *which page* of an
// active block a program lands on and drives the block life cycle; placement
// decides *which active block* — by partitioning each chip's data path into
// streams (stream 0 is the cold/default stream) and by choosing which free
// block opens a stream's next active block. The interface is sealed —
// implementations come from SinglePlacementPolicy / HotColdPlacementPolicy /
// WearAwarePlacementPolicy.
//
// Contract:
//   - classify(fromGC=true) returns 0 and mutates nothing, so GC relocations
//     always ride the cold stream and never count as writes in the heat
//     history.
//   - classify(fromGC=false) may consult only the LPN's own arrival-time
//     history (never cross-LPN or cursor state), so the hot/cold decision
//     does not depend on how other LPNs' writes interleave with it.
type PlacementPolicy interface {
	init(k *Kernel) error
	// streams is the number of data streams per chip (1 = today's behavior).
	streams() int
	// classify routes one data program to a stream index in [0, streams()).
	classify(k *Kernel, lpn LPN, now sim.Time, fromGC bool) int
	// pickFree chooses the free block that opens the stream's next active
	// block on the chip (ok false when the pool is empty).
	pickFree(k *Kernel, chip, stream int) (int, bool)
}

// SinglePlacementPolicy returns the default placement: one stream, free
// blocks consumed in FIFO order — byte-exact with the kernel before the
// placement axis existed (the equivalence goldens pin this).
func SinglePlacementPolicy() PlacementPolicy { return placeSingle{} }

type placeSingle struct{}

func (placeSingle) init(*Kernel) error { return nil }
func (placeSingle) streams() int       { return 1 }
func (placeSingle) classify(*Kernel, LPN, sim.Time, bool) int {
	return 0
}
func (placeSingle) pickFree(k *Kernel, chip, stream int) (int, bool) {
	return k.Pools[chip].PopFree()
}

// HotColdParams tunes the write-temperature learner shared by the hot/cold
// and wear-aware placements.
type HotColdParams struct {
	// HotThreshold is the decayed per-LPN write count at or above which a
	// write routes to the hot stream.
	HotThreshold uint32
	// HalfLife is the virtual-time interval over which a cold LPN's write
	// count halves (0 disables decay).
	HalfLife sim.Time
}

// DefaultHotColdParams returns the tuning the registry's hot/cold schemes
// use: an LPN is hot after its second write inside a three-second half-life.
// Under the Zipf workloads that captures most of the distribution's head
// (re-written within a burst or two) while one-shot writes decay back to
// cold; the placement sweep picked it over tighter settings, which left too
// much of the overwrite traffic in the cold stream to pay for the second
// stream's captive blocks.
func DefaultHotColdParams() HotColdParams {
	return HotColdParams{HotThreshold: 2, HalfLife: 3 * sim.Second}
}

// Validate rejects unusable parameter combinations.
func (p HotColdParams) Validate() error {
	if p.HotThreshold < 1 {
		return fmt.Errorf("ftl: hot/cold threshold %d < 1", p.HotThreshold)
	}
	if p.HalfLife < 0 {
		return fmt.Errorf("ftl: hot/cold half-life %d < 0", p.HalfLife)
	}
	return nil
}

// heatEntry is one LPN's decaying write counter.
type heatEntry struct {
	count uint32
	stamp sim.Time // virtual time the count was last decayed to
}

// heatTable learns per-LPN write frequency with lazily-decayed counters. It
// is a flat slice indexed by LPN, not a map: one entry per logical page,
// allocated once, with no hashing on the write path.
type heatTable struct {
	p   HotColdParams
	ent []heatEntry
}

func (h *heatTable) init(k *Kernel) error {
	if err := h.p.Validate(); err != nil {
		return err
	}
	h.ent = make([]heatEntry, k.LogicalPages())
	return nil
}

// touch decays the LPN's counter to now, counts the write, and returns the
// updated count. Decay is whole halvings of the elapsed half-lives, so the
// result depends only on the LPN's own write-arrival history — never on when
// other LPNs were written.
func (h *heatTable) touch(lpn LPN, now sim.Time) uint32 {
	e := &h.ent[lpn]
	if h.p.HalfLife > 0 && now > e.stamp {
		halvings := (now - e.stamp) / h.p.HalfLife
		if halvings > 0 {
			if halvings >= 32 {
				e.count = 0
			} else {
				e.count >>= uint(halvings)
			}
			e.stamp += halvings * h.p.HalfLife
		}
	}
	if e.count < ^uint32(0) {
		e.count++
	}
	return e.count
}

// hotColdStreams is the stream layout shared by the temperature placements.
const (
	streamCold = 0
	streamHot  = 1
)

// HotColdPlacementPolicy returns two-stream temperature separation: writes of
// frequently-updated LPNs go to a per-chip hot active block, the rest — and
// every GC relocation — to the cold one. Segregating short-lived data means
// hot blocks die almost fully invalid (cheap GC victims) while cold blocks
// stop being collected over and over, which lowers write amplification under
// skewed workloads (Choi & Jung's data-longevity argument).
func HotColdPlacementPolicy(p HotColdParams) PlacementPolicy {
	return &placeHotCold{heat: heatTable{p: p}}
}

type placeHotCold struct {
	heat heatTable
}

func (pl *placeHotCold) init(k *Kernel) error { return pl.heat.init(k) }
func (pl *placeHotCold) streams() int         { return 2 }

func (pl *placeHotCold) classify(k *Kernel, lpn LPN, now sim.Time, fromGC bool) int {
	if fromGC {
		// Relocations are data that survived a whole block lifetime — cold by
		// demonstration. Not counting them also keeps GC pre-runs exact.
		return streamCold
	}
	if pl.heat.touch(lpn, now) >= pl.heat.p.HotThreshold {
		return streamHot
	}
	return streamCold
}

func (pl *placeHotCold) pickFree(k *Kernel, chip, stream int) (int, bool) {
	return k.Pools[chip].PopFree()
}

// WearAwarePlacementPolicy returns temperature separation plus wear-directed
// block choice: the hot stream (short-lived data, frequent erases ahead)
// opens the *least*-worn free block, the cold stream the *most*-worn one —
// parking long-lived data on tired blocks so future erases concentrate on
// healthy ones (Boukhobza et al.'s wear-leveling-by-placement). Stream
// layout and classification are identical to HotColdPlacementPolicy.
func WearAwarePlacementPolicy(p HotColdParams) PlacementPolicy {
	return &placeWearAware{placeHotCold{heat: heatTable{p: p}}}
}

type placeWearAware struct {
	placeHotCold
}

func (pl *placeWearAware) pickFree(k *Kernel, chip, stream int) (int, bool) {
	return k.Pools[chip].PopFreeWorn(func(blk int) int {
		return k.EraseCountOf(chip, blk)
	}, stream == streamCold)
}
