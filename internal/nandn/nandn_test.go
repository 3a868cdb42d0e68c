package nandn

import (
	"bytes"
	"errors"
	"testing"

	"flexftl/internal/nlevel"
	"flexftl/internal/obs"
	"flexftl/internal/sim"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	g := TLCGeometry()
	g.BlocksPerChip = 8
	g.WordLinesPerBlock = 4
	d, err := NewDevice(g, TLCTiming())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func pa(chip, blk, wl, lvl int) PageAddr {
	return PageAddr{Chip: chip, Block: blk, Page: nlevel.Page{WL: wl, Level: lvl}}
}

func TestGeometryValidate(t *testing.T) {
	if err := TLCGeometry().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TLCGeometry()
	bad.Levels = 1
	if err := bad.Validate(); err == nil {
		t.Error("1-level geometry accepted")
	}
	bad = TLCGeometry()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("0-channel geometry accepted")
	}
	g := TLCGeometry()
	if g.Chips() != 4 || g.PagesPerBlock() != 96 || g.TotalBlocks() != 256 {
		t.Errorf("geometry arithmetic wrong: %+v", g)
	}
	if g.TotalPages() != 256*96 {
		t.Error("TotalPages wrong")
	}
	if g.ChannelOf(3) != 1 {
		t.Error("ChannelOf wrong")
	}
	if g.String() == "" {
		t.Error("String empty")
	}
}

func TestTimingValidate(t *testing.T) {
	if err := TLCTiming().Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := TLCTiming().Validate(2); err == nil {
		t.Error("wrong level count accepted")
	}
	bad := TLCTiming()
	bad.Prog = []sim.Time{1000, 500, 2000} // non-monotone
	if err := bad.Validate(3); err == nil {
		t.Error("non-monotone latencies accepted")
	}
	bad = TLCTiming()
	bad.Read = 0
	if err := bad.Validate(3); err == nil {
		t.Error("zero read accepted")
	}
}

func TestProgramEnforcesRelaxedRules(t *testing.T) {
	d := testDevice(t)
	// T1(0) straight away is illegal (refinement without T0).
	if _, err := d.Program(pa(0, 0, 0, 1), nil, nil, 0); err == nil {
		t.Fatal("illegal refinement accepted")
	}
	// The generalized 3-phase order must be fully accepted.
	now := sim.Time(0)
	for _, p := range nlevel.RelaxedFullOrder(d.Geometry().Scheme()) {
		var err error
		now, err = d.Program(PageAddr{Chip: 0, Block: 0, Page: p}, []byte{byte(p.WL)}, nil, now)
		if err != nil {
			t.Fatalf("program %v: %v", p, err)
		}
	}
	if d.BlockProgrammed(0, 0) != d.Geometry().PagesPerBlock() {
		t.Error("block not full after 3-phase fill")
	}
}

func TestPerLevelLatencies(t *testing.T) {
	d := testDevice(t)
	tm := d.Timing()
	done0, err := d.Program(pa(0, 0, 0, 0), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done0 != tm.BusXfer+tm.Prog[0] {
		t.Errorf("level-0 done = %v", done0)
	}
	done1, err := d.Program(pa(0, 0, 1, 0), nil, nil, done0)
	if err != nil {
		t.Fatal(err)
	}
	doneRef, err := d.Program(pa(0, 0, 0, 1), nil, nil, done1)
	if err != nil {
		t.Fatal(err)
	}
	if got := doneRef - done1; got != tm.BusXfer+tm.Prog[1] {
		t.Errorf("level-1 latency = %v, want %v", got, tm.BusXfer+tm.Prog[1])
	}
	counts := d.Programs()
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 0 {
		t.Errorf("program counts = %v", counts)
	}
}

func TestReadBackAndErase(t *testing.T) {
	d := testDevice(t)
	data, spare := []byte("tlc payload"), []byte{0xaa}
	if _, err := d.Program(pa(0, 0, 0, 0), data, spare, 0); err != nil {
		t.Fatal(err)
	}
	got, gotSpare, done, err := d.Read(pa(0, 0, 0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || !bytes.Equal(gotSpare, spare) || done <= 0 {
		t.Error("read back mismatch")
	}
	if _, _, _, err := d.Read(pa(0, 0, 1, 0), done); !errors.Is(err, ErrNotProgrammed) {
		t.Errorf("erased read err = %v", err)
	}
	if _, err := d.Erase(0, 0, done); err != nil {
		t.Fatal(err)
	}
	if d.EraseCount(0, 0) != 1 || d.Erases() != 1 {
		t.Error("erase accounting wrong")
	}
	if _, _, _, err := d.Read(pa(0, 0, 0, 0), done); !errors.Is(err, ErrNotProgrammed) {
		t.Error("page survived erase")
	}
}

// TestPowerLossDestroysEarlierBits: a cut during a level-2 (finest) program
// destroys the word line's level-0 and level-1 pages too.
func TestPowerLossDestroysEarlierBits(t *testing.T) {
	d := testDevice(t)
	s := d.Geometry().Scheme()
	now := sim.Time(0)
	var err error
	// Program following the 3-phase order until the first level-2 page.
	for _, p := range nlevel.RelaxedFullOrder(s) {
		now, err = d.Program(PageAddr{Chip: 0, Block: 0, Page: p}, []byte{1}, nil, now)
		if err != nil {
			t.Fatal(err)
		}
		if p.Level == 2 && p.WL == 0 {
			break
		}
	}
	n := d.InjectPowerLoss(0, 0)
	if n != 3 {
		t.Fatalf("power loss corrupted %d pages, want 3 (T0,T1,T2 of WL0)", n)
	}
	for lvl := 0; lvl < 3; lvl++ {
		if _, _, _, err := d.Read(pa(0, 0, 0, lvl), now); !errors.Is(err, ErrUncorrectable) {
			t.Errorf("T%d(0) read err = %v, want uncorrectable", lvl, err)
		}
	}
	// Other word lines unaffected.
	if _, _, _, err := d.Read(pa(0, 0, 1, 0), now); err != nil {
		t.Errorf("unrelated page damaged: %v", err)
	}
	// An erase drops the corruption with the data; a fresh program reads
	// clean.
	if now, err = d.Erase(0, 0, now); err != nil {
		t.Fatal(err)
	}
	for lvl := 0; lvl < 3; lvl++ {
		if _, _, _, err := d.Read(pa(0, 0, 0, lvl), now); !errors.Is(err, ErrNotProgrammed) {
			t.Errorf("T%d(0) read after erase: err = %v, want ErrNotProgrammed", lvl, err)
		}
	}
	for _, p := range nlevel.RelaxedFullOrder(s) {
		if now, err = d.Program(PageAddr{Chip: 0, Block: 0, Page: p}, []byte{2}, nil, now); err != nil {
			t.Fatal(err)
		}
	}
	for lvl := 0; lvl < 3; lvl++ {
		if got, _, _, err := d.Read(pa(0, 0, 0, lvl), now); err != nil || !bytes.Equal(got, []byte{2}) {
			t.Errorf("T%d(0) read after reprogram: %x, err = %v", lvl, got, err)
		}
	}
}

func TestAckClosesWindow(t *testing.T) {
	d := testDevice(t)
	now := sim.Time(0)
	var err error
	now, err = d.Program(pa(0, 0, 0, 0), []byte{1}, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = d.Program(pa(0, 0, 1, 0), []byte{1}, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = d.Program(pa(0, 0, 0, 1), []byte{1}, nil, now); err != nil {
		t.Fatal(err)
	}
	d.AckProgram(0, 0)
	if n := d.InjectPowerLoss(0, 0); n != 0 {
		t.Errorf("acknowledged refinement still vulnerable: %d pages", n)
	}
}

func TestLevel0NotDestructive(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Program(pa(0, 0, 0, 0), []byte{1}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := d.InjectPowerLoss(0, 0); n != 0 {
		t.Errorf("level-0 program flagged destructive: %d", n)
	}
}

func TestChannelContention(t *testing.T) {
	d := testDevice(t)
	tm := d.Timing()
	// Chips 0 and 1 share channel 0.
	d1, err := d.Program(pa(0, 0, 0, 0), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := d.Program(pa(1, 0, 0, 0), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != tm.BusXfer+tm.Prog[0] || d2 != 2*tm.BusXfer+tm.Prog[0] {
		t.Errorf("bus serialization wrong: %v, %v", d1, d2)
	}
	// Chip on the other channel is fully parallel.
	d3, err := d.Program(pa(2, 0, 0, 0), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Errorf("cross-channel program not parallel: %v vs %v", d3, d1)
	}
}

func TestOutOfRange(t *testing.T) {
	d := testDevice(t)
	for _, a := range []PageAddr{pa(-1, 0, 0, 0), pa(0, 99, 0, 0), pa(0, 0, 99, 0), pa(0, 0, 0, 9)} {
		if _, err := d.Program(a, nil, nil, 0); err == nil {
			t.Errorf("program %v accepted", a)
		}
		if _, _, _, err := d.Read(a, 0); err == nil {
			t.Errorf("read %v accepted", a)
		}
	}
	if _, err := d.Erase(0, -1, 0); err == nil {
		t.Error("erase of bad block accepted")
	}
	if d.InjectPowerLoss(-1, 0) != 0 || d.BlockProgrammed(-1, 0) != 0 || d.EraseCount(9, 0) != 0 {
		t.Error("out-of-range queries not zero")
	}
}

func TestNewDeviceRejectsBadConfig(t *testing.T) {
	bad := TLCGeometry()
	bad.Levels = 0
	if _, err := NewDevice(bad, TLCTiming()); err == nil {
		t.Error("bad geometry accepted")
	}
	tm := TLCTiming()
	tm.Prog = tm.Prog[:2]
	if _, err := NewDevice(TLCGeometry(), tm); err == nil {
		t.Error("bad timing accepted")
	}
}

func TestReadIntoMatchesRead(t *testing.T) {
	d := testDevice(t)
	a := pa(0, 0, 0, 0)
	if _, err := d.Program(a, []byte("tlc zero copy"), []byte{0x7}, 0); err != nil {
		t.Fatal(err)
	}
	_, _, done1, err := d.Read(a, 0) // absorb the chip-busy wait
	if err != nil {
		t.Fatal(err)
	}
	data, spare, doneRead, err := d.Read(a, done1)
	if err != nil {
		t.Fatal(err)
	}
	var buf PageBuf
	doneInto, err := d.ReadInto(a, &buf, doneRead)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Data, data) || !bytes.Equal(buf.Spare, spare) {
		t.Error("ReadInto payload differs from Read")
	}
	if lr, li := doneRead-done1, doneInto-doneRead; li != lr {
		t.Errorf("ReadInto latency %v, Read latency %v", li, lr)
	}
	if _, err := d.ReadInto(pa(0, 0, 1, 0), &buf, doneInto); !errors.Is(err, ErrNotProgrammed) {
		t.Errorf("erased ReadInto err = %v, want ErrNotProgrammed", err)
	}
	if len(buf.Data) != 0 || len(buf.Spare) != 0 {
		t.Error("buffer not truncated after failed ReadInto")
	}
}

// TestCauseAttribution mirrors the MLC device's contract on the n-level
// device: busy time decomposes by ambient cause, SetCause nests, and
// counters mirror the array when a recorder is attached.
func TestCauseAttribution(t *testing.T) {
	d := testDevice(t)
	rec := obs.NewRecorder(obs.Options{})
	d.SetRecorder(rec)
	tm := d.Timing()

	done, err := d.Program(pa(0, 0, 0, 0), []byte("a"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := d.SetCause(obs.CauseGC)
	if prev != obs.CauseHost {
		t.Errorf("SetCause returned %v, want CauseHost", prev)
	}
	gcDone, err := d.Program(pa(0, 0, 1, 0), []byte("b"), nil, done)
	if err != nil {
		t.Fatal(err)
	}
	d.SetCause(prev)
	if d.Cause() != obs.CauseHost {
		t.Errorf("cause after restore = %v", d.Cause())
	}

	busy := d.CauseBusy()
	if want := tm.BusXfer + tm.Prog[0]; busy[obs.CauseHost] != want {
		t.Errorf("host busy = %v, want %v", busy[obs.CauseHost], want)
	}
	if want := gcDone - done; busy[obs.CauseGC] != want {
		t.Errorf("gc busy = %v, want %v", busy[obs.CauseGC], want)
	}
	snap := rec.Registry().Snapshot()
	for c := obs.CauseHost; c < obs.CauseCount; c++ {
		if got := snap.Counters[obs.BusyCounterName("nandn", c)]; got != int64(busy[c]) {
			t.Errorf("counter %s = %d, array %d", obs.BusyCounterName("nandn", c), got, busy[c])
		}
	}
	if h := snap.Histograms["nandn.program_us"]; h.Count != 2 {
		t.Errorf("nandn.program_us count = %d, want 2", h.Count)
	}
}

// TestWearStats: the erase-count spread accessor mirrors the MLC device's.
func TestWearStats(t *testing.T) {
	d := testDevice(t)
	for i := 0; i < 3; i++ {
		if _, err := d.Erase(0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Erase(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	w := d.Wear()
	if w.Min != 0 || w.Max != 3 {
		t.Errorf("wear min/max = %d/%d, want 0/3", w.Min, w.Max)
	}
	total := d.Geometry().TotalBlocks()
	wantMean := 4.0 / float64(total)
	if diff := w.Mean - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("wear mean = %v, want %v", w.Mean, wantMean)
	}
	if w.Imbalance <= 1 {
		t.Errorf("imbalance = %v, want > 1 for skewed wear", w.Imbalance)
	}
}

func TestReadIntoZeroAllocs(t *testing.T) {
	d := testDevice(t)
	a := pa(0, 0, 0, 0)
	if _, err := d.Program(a, []byte("tlc zero copy"), []byte{0x7}, 0); err != nil {
		t.Fatal(err)
	}
	var buf PageBuf
	now := sim.Time(0)
	if _, err := d.ReadInto(a, &buf, now); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		done, err := d.ReadInto(a, &buf, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	})
	if allocs != 0 {
		t.Errorf("ReadInto allocates %v times per read, want 0", allocs)
	}
}

// TestProgramAndEraseAllocateNothing pins the page store's write path at
// zero allocations: programming never-written pages, erasing blocks, and
// programming the pages of erased and reused blocks (an erase used to drop
// each page's payload capacity, so every reprogram allocated twice). Each
// run fills (or erases) one whole block with slot-sized payloads.
func TestProgramAndEraseAllocateNothing(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	order := nlevel.RelaxedFullOrder(g.Scheme())
	data, spare := make([]byte, DataSlotBytes), make([]byte, SpareSlotBytes)
	var now sim.Time
	next := 0
	nextBlock := func() (chip, blk int) {
		chip, blk = next%g.Chips(), next/g.Chips()
		next++
		return chip, blk
	}
	fill := func() {
		chip, blk := nextBlock()
		for _, p := range order {
			var err error
			if now, err = d.Program(PageAddr{Chip: chip, Block: blk, Page: p}, data, spare, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	erase := func() {
		chip, blk := nextBlock()
		var err error
		if now, err = d.Erase(chip, blk, now); err != nil {
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

// TestWidePayloadsRoundTrip covers the shared store's side table on the
// n-level device: payloads wider than the inline slots read back intact
// through Read and ReadInto without aliasing, an erase drops them, and a
// short reprogram reads back short.
func TestWidePayloadsRoundTrip(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	wide := []struct{ data, spare []byte }{
		{[]byte("zero copy payload"), []byte{0x42}},
		{[]byte("hello page payload"), []byte{0xde, 0xad}},
		{bytes.Repeat([]byte{0xa5}, g.PageSizeBytes), bytes.Repeat([]byte{0x5a}, g.SpareBytes)},
		{[]byte("short"), bytes.Repeat([]byte{0x11}, SpareSlotBytes+1)},
	}
	order := nlevel.RelaxedFullOrder(g.Scheme())
	var now sim.Time
	var err error
	for i, w := range wide {
		in := append([]byte(nil), w.data...)
		if now, err = d.Program(PageAddr{Chip: 1, Block: 2, Page: order[i]}, in, w.spare, now); err != nil {
			t.Fatal(err)
		}
		in[0] ^= 0xff // the store must hold its own copy
	}
	var buf PageBuf
	for i, w := range wide {
		a := PageAddr{Chip: 1, Block: 2, Page: order[i]}
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
	if now, err = d.Erase(1, 2, now); err != nil {
		t.Fatal(err)
	}
	for i := range wide {
		short := []byte{byte(i)}
		a := PageAddr{Chip: 1, Block: 2, Page: order[i]}
		if now, err = d.Program(a, short, short, now); err != nil {
			t.Fatal(err)
		}
		data, spare, _, err := d.Read(a, now)
		if err != nil || !bytes.Equal(data, short) || !bytes.Equal(spare, short) {
			t.Fatalf("short reprogram of %v read back %x/%x (err %v), want %x", a, data, spare, err, short)
		}
	}
}
