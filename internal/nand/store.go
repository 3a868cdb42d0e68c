package nand

import "flexftl/internal/sim"

// Slot widths of the MLC device's page store. Every payload the FTLs program
// fits them — ftl.TokenSize-byte tokens and parity pages, 8-byte reverse-map
// spares — so a program copies into the device's flat arrays and allocates
// nothing. Wider payloads (up to the geometry's page and spare sizes) still
// round-trip, through the store's side table.
const (
	DataSlotBytes  = 16
	SpareSlotBytes = 8
)

// Page flags, packed one byte per page.
const (
	flagProgrammed uint8 = 1 << iota
	// flagCorrupted: data destroyed (power-off during a destructive program,
	// or fault injection).
	flagCorrupted
	// flagLost pins the page ECC-uncorrectable: once a read of it failed the
	// retry ladder, every later read must fail too (the reliability model's
	// hash varies per read, so without the pin a lost page could "recover").
	flagLost
	// flagWide: the payload did not fit the slots and lives in the side table.
	flagWide
)

// pageMeta is one page's flags and inline payload lengths.
type pageMeta struct {
	flags             uint8
	dataLen, spareLen uint8
}

// widePage is a side-table payload too wide for the inline slots.
type widePage struct {
	data, spare []byte
}

// PageStore holds the stored state of every page of a device in flat,
// pointer-free arrays indexed by flat page number. Pages are numbered
// block-major, so one block's pages form one contiguous range and an erase
// is a clear over that range. The garbage collector never scans the arrays:
// the only pointers live in the side table, which stays empty unless a
// payload outgrows its slot.
//
// The store is shared by the MLC (nand) and n-level (nandn) devices; it
// keeps bytes and flags only, and the devices own every rule about when a
// page may be programmed or read.
type PageStore struct {
	meta []pageMeta
	// slots holds each page's data slot followed by its spare slot, so one
	// program touches one contiguous record.
	slots               []byte
	dataSlot, spareSlot int
	// progAt is each page's last program time — the zero of its retention
	// clock. nil until TrackProgAt, i.e. unless a reliability model is
	// mounted.
	progAt []sim.Time
	wide   map[int]widePage
}

// NewPageStore returns an all-erased store of n pages with the given inline
// slot widths (each at most 255 bytes).
func NewPageStore(n, dataSlot, spareSlot int) PageStore {
	if dataSlot > 255 || spareSlot > 255 {
		panic("nand: page store slots must fit a one-byte length")
	}
	return PageStore{
		meta:      make([]pageMeta, n),
		slots:     make([]byte, n*(dataSlot+spareSlot)),
		dataSlot:  dataSlot,
		spareSlot: spareSlot,
	}
}

// record returns page i's data slot followed by its spare slot.
func (s *PageStore) record(i int) []byte {
	stride := s.dataSlot + s.spareSlot
	return s.slots[i*stride : (i+1)*stride]
}

// TrackProgAt starts recording program times (see ProgAt). Idempotent.
func (s *PageStore) TrackProgAt() {
	if s.progAt == nil {
		s.progAt = make([]sim.Time, len(s.meta))
	}
}

// Programmed reports whether page i holds data.
func (s *PageStore) Programmed(i int) bool { return s.meta[i].flags&flagProgrammed != 0 }

// Corrupted reports whether page i's data was destroyed.
func (s *PageStore) Corrupted(i int) bool { return s.meta[i].flags&flagCorrupted != 0 }

// Lost reports whether page i is pinned ECC-uncorrectable.
func (s *PageStore) Lost(i int) bool { return s.meta[i].flags&flagLost != 0 }

// SetCorrupted marks page i's data destroyed until the next program or erase.
func (s *PageStore) SetCorrupted(i int) { s.meta[i].flags |= flagCorrupted }

// SetLost pins page i ECC-uncorrectable until the next program or erase.
func (s *PageStore) SetLost(i int) { s.meta[i].flags |= flagLost }

// ProgAt returns page i's last program time (0 unless TrackProgAt is on).
func (s *PageStore) ProgAt(i int) sim.Time {
	if s.progAt == nil {
		return 0
	}
	return s.progAt[i]
}

// Store programs page i: it copies data and spare in, records at as the
// program time when tracking, marks the page programmed and clears its
// corrupted and lost flags. Payloads that fit the slots allocate nothing.
func (s *PageStore) Store(i int, data, spare []byte, at sim.Time) {
	m := &s.meta[i]
	if len(data) <= s.dataSlot && len(spare) <= s.spareSlot {
		rec := s.record(i)
		copy(rec, data)
		copy(rec[s.dataSlot:], spare)
		if m.flags&flagWide != 0 {
			delete(s.wide, i)
		}
		*m = pageMeta{flags: flagProgrammed, dataLen: uint8(len(data)), spareLen: uint8(len(spare))}
	} else {
		if s.wide == nil {
			s.wide = make(map[int]widePage)
		}
		w := s.wide[i]
		w.data = append(w.data[:0], data...)
		w.spare = append(w.spare[:0], spare...)
		s.wide[i] = w
		*m = pageMeta{flags: flagProgrammed | flagWide}
	}
	if s.progAt != nil {
		s.progAt[i] = at
	}
}

// Payload returns page i's stored data and spare bytes. The slices alias the
// store and are valid until the page is next programmed or erased; callers
// copy them out.
func (s *PageStore) Payload(i int) (data, spare []byte) {
	m := s.meta[i]
	if m.flags&flagWide != 0 {
		w := s.wide[i]
		return w.data, w.spare
	}
	rec := s.record(i)
	return rec[:m.dataLen], rec[s.dataSlot : s.dataSlot+int(m.spareLen)]
}

// Erase resets pages [lo, hi) to the erased state. Stale slot bytes stay:
// they are unreachable behind the cleared flags and lengths.
func (s *PageStore) Erase(lo, hi int) {
	if len(s.wide) > 0 {
		for i := lo; i < hi; i++ {
			if s.meta[i].flags&flagWide != 0 {
				delete(s.wide, i)
			}
		}
	}
	clear(s.meta[lo:hi])
}
