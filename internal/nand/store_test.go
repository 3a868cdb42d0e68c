package nand

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// TestProgramAndEraseAllocateNothing pins the page store's write path at
// zero allocations: programming never-written pages, erasing blocks, and
// programming the pages of erased and reused blocks. Each run fills (or
// erases) one whole block with slot-sized payloads.
func TestProgramAndEraseAllocateNothing(t *testing.T) {
	d := testDevice(t, core.FPS)
	g := d.Geometry()
	order := core.FPSOrder(g.WordLinesPerBlock)
	data, spare := make([]byte, DataSlotBytes), make([]byte, SpareSlotBytes)
	var now sim.Time
	next := 0
	nextBlock := func() BlockAddr {
		b := BlockAddr{Chip: next % g.Chips(), Block: next / g.Chips()}
		next++
		return b
	}
	fill := func() {
		b := nextBlock()
		for _, p := range order {
			var err error
			if now, err = d.Program(PageAddr{BlockAddr: b, Page: p}, data, spare, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	erase := func() {
		var err error
		if now, err = d.Erase(nextBlock(), now); err != nil {
			t.Fatal(err)
		}
	}
	runs := g.TotalBlocks() - 1 // AllocsPerRun adds one warm-up call
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"program never-written block", fill},
		{"erase", erase},
		{"program erased and reused block", fill},
	} {
		next = 0
		if n := testing.AllocsPerRun(runs, c.f); n != 0 {
			t.Errorf("%s: %v allocations per block, want 0", c.name, n)
		}
	}
}

// TestWidePayloadsRoundTrip covers the side table: payloads wider than the
// inline slots (one byte over, a whole page, a wide spare alone) read back
// intact through Read and ReadInto without aliasing the store, an erase
// drops their entries, and a short reprogram reads back short.
func TestWidePayloadsRoundTrip(t *testing.T) {
	d := testDevice(t, core.RPS)
	g := d.Geometry()
	wide := []struct{ data, spare []byte }{
		{[]byte("zero copy payload"), []byte{0x42}},
		{[]byte("hello page payload"), []byte{0xde, 0xad}},
		{bytes.Repeat([]byte{0xa5}, g.PageSizeBytes), bytes.Repeat([]byte{0x5a}, g.SpareBytes)},
		{[]byte("short"), bytes.Repeat([]byte{0x11}, SpareSlotBytes+1)},
	}
	blk := BlockAddr{Chip: 1, Block: 2}
	order := core.RPSFullOrder(g.WordLinesPerBlock)
	var now sim.Time
	for i, w := range wide {
		in := append([]byte(nil), w.data...)
		var err error
		if now, err = d.Program(PageAddr{BlockAddr: blk, Page: order[i]}, in, w.spare, now); err != nil {
			t.Fatal(err)
		}
		in[0] ^= 0xff // the store must hold its own copy
	}
	if len(d.pages.wide) != len(wide) {
		t.Fatalf("side table holds %d entries, want %d", len(d.pages.wide), len(wide))
	}
	var buf PageBuf
	for i, w := range wide {
		a := PageAddr{BlockAddr: blk, Page: order[i]}
		data, spare, done, err := d.Read(a, now)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, w.data) || !bytes.Equal(spare, w.spare) {
			t.Fatalf("Read %v: payload mismatch", a)
		}
		data[0] ^= 0xff
		spare[0] ^= 0xff
		if now, err = d.ReadInto(a, &buf, done); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Data, w.data) || !bytes.Equal(buf.Spare, w.spare) {
			t.Fatalf("ReadInto %v after mutating Read's copy: payload mismatch", a)
		}
		buf.Data[0] ^= 0xff
		if data, _, now, err = d.Read(a, now); err != nil || !bytes.Equal(data, w.data) {
			t.Fatalf("Read %v after mutating ReadInto's buffer: payload mismatch (err %v)", a, err)
		}
	}

	var err error
	if now, err = d.Erase(blk, now); err != nil {
		t.Fatal(err)
	}
	if len(d.pages.wide) != 0 {
		t.Fatalf("side table holds %d entries after erase, want 0", len(d.pages.wide))
	}
	for i := range wide {
		short := []byte{byte(i)}
		a := PageAddr{BlockAddr: blk, Page: order[i]}
		if now, err = d.Program(a, short, short, now); err != nil {
			t.Fatal(err)
		}
		data, spare, _, err := d.Read(a, now)
		if err != nil || !bytes.Equal(data, short) || !bytes.Equal(spare, short) {
			t.Fatalf("short reprogram of %v read back %x/%x (err %v), want %x", a, data, spare, err, short)
		}
	}
}

// TestFlagsClearOnEraseAndProgram walks the page flags through their life
// cycle: InjectPowerLoss, CorruptPage and MarkLost set them, an erase drops
// them with the data, and a fresh program reads clean.
func TestFlagsClearOnEraseAndProgram(t *testing.T) {
	d := testDevice(t, core.FPS)
	g := d.Geometry()
	blk := BlockAddr{Chip: 0, Block: 5}
	order := core.FPSOrder(g.WordLinesPerBlock)
	var now sim.Time
	for _, p := range order[:3] { // LSB(0), LSB(1), MSB(0): the window is open on WL 0
		now = mustProgram(t, d, PageAddr{BlockAddr: blk, Page: p}, now)
	}
	if !d.InjectPowerLoss(blk) {
		t.Fatal("power loss corrupted nothing")
	}
	now = mustProgram(t, d, PageAddr{BlockAddr: blk, Page: order[3]}, now)
	now = mustProgram(t, d, PageAddr{BlockAddr: blk, Page: order[4]}, now)
	if err := d.CorruptPage(PageAddr{BlockAddr: blk, Page: order[3]}); err != nil {
		t.Fatal(err)
	}
	if err := d.MarkLost(PageAddr{BlockAddr: blk, Page: order[4]}); err != nil {
		t.Fatal(err)
	}
	// LSB(0) and MSB(0) lost to the power cut, LSB(1) intact, LSB(2)
	// corrupted, MSB(1) lost.
	want := []error{ErrUncorrectable, nil, ErrUncorrectable, ErrUncorrectable, rel.ErrUncorrectable}
	for i, w := range want {
		a := PageAddr{BlockAddr: blk, Page: order[i]}
		if _, _, _, err := d.Read(a, now); !errors.Is(err, w) {
			t.Fatalf("read %v before erase: err %v, want %v", a, err, w)
		}
	}

	var err error
	if now, err = d.Erase(blk, now); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		a := PageAddr{BlockAddr: blk, Page: order[i]}
		if d.IsProgrammed(a) || d.IsCorrupted(a) {
			t.Fatalf("%v programmed=%v corrupted=%v after erase", a, d.IsProgrammed(a), d.IsCorrupted(a))
		}
		if _, _, _, err := d.Read(a, now); !errors.Is(err, ErrNotProgrammed) {
			t.Fatalf("read %v after erase: err %v, want ErrNotProgrammed", a, err)
		}
	}
	for i := range want {
		now = mustProgram(t, d, PageAddr{BlockAddr: blk, Page: order[i]}, now)
	}
	for i := range want {
		a := PageAddr{BlockAddr: blk, Page: order[i]}
		if _, _, _, err := d.Read(a, now); err != nil || d.IsCorrupted(a) {
			t.Fatalf("read %v after reprogram: err %v, corrupted=%v", a, err, d.IsCorrupted(a))
		}
	}
}

// TestDeviceBytesPerPage gates the device's footprint: the live heap of an
// EvalGeometry-sized device with no reliability model, after construction
// and after every page is programmed with slot-sized payloads, stays within
// 32 bytes per page.
func TestDeviceBytesPerPage(t *testing.T) {
	const maxBytesPerPage = 32
	g := Geometry{Channels: 4, ChipsPerChannel: 2, BlocksPerChip: 128, WordLinesPerBlock: 64, PageSizeBytes: 4096, SpareBytes: 64}
	before := liveHeap()
	d, err := NewDevice(Config{Geometry: g, Timing: DefaultTiming(), Rules: core.FPS})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		perPage := float64(int64(liveHeap())-int64(before)) / float64(g.TotalPages())
		t.Logf("%s: %.1f B/page", when, perPage)
		if perPage > maxBytesPerPage {
			t.Errorf("%s: %.1f B/page, want <= %d", when, perPage, maxBytesPerPage)
		}
	}
	check("constructed")
	data, spare := make([]byte, DataSlotBytes), make([]byte, SpareSlotBytes)
	order := core.FPSOrder(g.WordLinesPerBlock)
	var now sim.Time
	for c := 0; c < g.Chips(); c++ {
		for b := 0; b < g.BlocksPerChip; b++ {
			for _, p := range order {
				if now, err = d.Program(PageAddr{BlockAddr: BlockAddr{Chip: c, Block: b}, Page: p}, data, spare, now); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	check("programmed")
	runtime.KeepAlive(d)
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
