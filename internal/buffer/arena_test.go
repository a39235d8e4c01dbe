package buffer

import (
	"slices"
	"testing"

	"melissa/internal/testwait"
)

// unseenCount reads the policy's unseen population under the lock.
func unseenCount(b *Blocking) int {
	var n int
	b.WithLock(func(p *Policy) { n = p.UnseenCount() })
	return n
}

// leasedRows counts the arena rows that back a sample.
func leasedRows(b *Blocking) int { return b.Arena().Rows() - b.Arena().FreeRows() }

func arenaSampleData(simID, step int, inDim, outDim int) (in, out []float32) {
	in = make([]float32, inDim)
	out = make([]float32, outDim)
	for i := range in {
		in[i] = float32(simID*1000 + step*10 + i)
	}
	for i := range out {
		out[i] = float32(simID*100000 + step*100 + i)
	}
	return in, out
}

func TestArenaPutCopyRoundTrip(t *testing.T) {
	const inDim, outDim = 3, 5
	b := NewBlockingArena(NewFIFO(0), inDim, outDim)
	for s := 1; s <= 4; s++ {
		in, out := arenaSampleData(7, s, inDim, outDim)
		if !b.PutCopy(7, s, in, out) {
			t.Fatalf("PutCopy step %d refused", s)
		}
	}
	got := 0
	n, ok := b.GetBatchEach(4, func(i int, s Sample) {
		wantIn, wantOut := arenaSampleData(7, s.Step, inDim, outDim)
		for j := range wantIn {
			if s.Input[j] != wantIn[j] {
				t.Fatalf("sample %d input[%d] = %v, want %v", i, j, s.Input[j], wantIn[j])
			}
		}
		for j := range wantOut {
			if s.Output[j] != wantOut[j] {
				t.Fatalf("sample %d output[%d] = %v, want %v", i, j, s.Output[j], wantOut[j])
			}
		}
		got++
	})
	if !ok || n != 4 || got != 4 {
		t.Fatalf("batch n=%d ok=%v got=%d", n, ok, got)
	}
}

// TestArenaRowsRecycled pins the bounded-memory property: streaming far
// more samples than the capacity through an evicting policy must reuse
// rows in place instead of growing the arena once the buffer is full.
func TestArenaRowsRecycled(t *testing.T) {
	const inDim, outDim = 2, 4
	const capacity = 64
	b := NewBlockingArena(NewReservoir(capacity, 0, 1), inDim, outDim)
	rows := -1
	discard := func(int, Sample) {}
	for s := 1; s <= 20*capacity; s++ {
		// A Reservoir refuses Put while unseen samples alone fill the
		// capacity; a single-threaded driver must extract first (a get
		// with seen==0 always migrates one unseen sample).
		if unseenCount(b) >= capacity {
			b.GetBatchEach(1, discard)
		}
		in, out := arenaSampleData(1, s, inDim, outDim)
		b.PutCopy(1, s, in, out)
		// Interleave gets so samples migrate to "seen" and become
		// evictable; this also exercises drain-free recycling.
		if s%2 == 0 {
			b.GetBatchEach(1, discard)
		}
		if rows < 0 && b.Len() == capacity {
			rows = b.Arena().Rows()
		}
	}
	if rows < 0 {
		t.Fatal("the buffer never filled")
	}
	if got := b.Arena().Rows(); got != rows {
		t.Fatalf("arena holds %d rows, %d when it first filled; eviction must recycle in place", got, rows)
	}
	// Conservation: every row is either free or accounted to a resident
	// sample.
	if leased := leasedRows(b); leased != b.Len() {
		t.Fatalf("row leak: %d rows leased for %d resident samples", leased, b.Len())
	}
}

// TestArenaPolicySequenceUnchanged drives two identically-seeded policies
// of every kind — a bare one through Put/TryGet, and one wrapped in a
// buffer through PutCopy/GetBatchEach — and requires the identical
// extraction sequence: the arena is invisible to the policy's RNG stream,
// keeping the paper's buffer statistics bit-identical. The population
// reaches capacity, so the evicting kinds evict too, and a drained buffer
// must have every row back.
func TestArenaPolicySequenceUnchanged(t *testing.T) {
	const inDim, outDim = 2, 3
	// Threshold 0: GetBatchEach blocks below the threshold, and this test
	// drives the buffer single-threaded.
	const capacity, threshold = 32, 0
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := Config{Kind: kind, Capacity: capacity, Threshold: threshold, Seed: 99}
			bare, _ := New(cfg)
			p, _ := New(cfg)
			arena := NewBlockingArena(p, inDim, outDim)

			var bareSeq, arenaSeq []Key
			record := func(_ int, s Sample) { arenaSeq = append(arenaSeq, s.Key()) }
			take := func() {
				if got, ok := bare.TryGet(); ok {
					bareSeq = append(bareSeq, got.Key())
				}
				arena.GetBatchEach(1, record)
			}
			for s := 1; s <= 200; s++ {
				if bare.UnseenCount() >= capacity {
					// Single-threaded: make room identically on both
					// before Put would refuse.
					take()
				}
				in, out := arenaSampleData(3, s, inDim, outDim)
				bare.Put(Sample{SimID: 3, Step: s, Input: in, Output: out})
				arena.PutCopy(3, s, in, out)
				if s%3 == 0 {
					take()
				}
			}
			bare.EndReception()
			arena.EndReception()
			for {
				got, ok := bare.TryGet()
				if !ok {
					break
				}
				bareSeq = append(bareSeq, got.Key())
			}
			for {
				if _, ok := arena.GetBatchEach(1, record); !ok {
					break
				}
			}
			if !slices.Equal(bareSeq, arenaSeq) {
				t.Fatalf("extraction sequences differ:\nbare  %v\narena %v", bareSeq, arenaSeq)
			}
			if free := arena.Arena().FreeRows(); free != arena.Arena().Rows() {
				t.Fatalf("drained buffer holds %d of %d rows", arena.Arena().Rows()-free, arena.Arena().Rows())
			}
		})
	}
}

// TestArenaRefusesMisSizedPayload pins that a payload which is not exactly
// one row is never stored — neither put nor restored — instead of being
// truncated into a row or kept off the arena.
func TestArenaRefusesMisSizedPayload(t *testing.T) {
	b := NewBlockingArena(NewFIFO(0), 2, 3)
	for _, p := range [][2][]float32{{{1, 2, 3}, {4, 5, 6}}, {{1, 2}, {3, 4, 5, 6}}, {{1, 2}, {3, 4}}} {
		if b.PutCopy(1, 1, p[0], p[1]) {
			t.Fatalf("PutCopy stored a %d/%d payload in a 2/3 row", len(p[0]), len(p[1]))
		}
	}
	if b.Len() != 0 || b.Arena().Rows() != 0 {
		t.Fatalf("refused payloads left %d samples and grew the arena to %d rows", b.Len(), b.Arena().Rows())
	}
	b.ReplaceContents(func(_, _ []Sample) ([]Sample, []Sample) {
		return nil, []Sample{{Input: []float32{1, 2}, Output: []float32{3, 4, 5}}, {Input: []float32{1}, Output: []float32{3, 4, 5}}}
	})
	if b.Len() != 1 || leasedRows(b) != 1 {
		t.Fatalf("restore kept %d samples on %d rows, want the one that fits on one row", b.Len(), leasedRows(b))
	}
}

// TestArenaPutDropsWhenReceptionOver: a straggler arriving after
// EndReception on a full buffer is dropped, and its freshly-leased row must
// be recycled, not leaked.
func TestArenaPutDropsWhenReceptionOver(t *testing.T) {
	b := NewBlockingArena(NewFIFO(1), 2, 2)
	if !b.PutCopy(1, 1, []float32{1, 1}, []float32{1, 1}) {
		t.Fatal("first PutCopy refused")
	}
	b.EndReception()
	free := b.Arena().FreeRows()
	if b.PutCopy(1, 2, []float32{2, 2}, []float32{2, 2}) {
		t.Fatal("PutCopy accepted after EndReception on a full buffer")
	}
	if got := b.Arena().FreeRows(); got != free {
		t.Fatalf("dropped sample leaked its row: %d free, want %d", got, free)
	}
}

// TestArenaParkedPutSurvivesReplaceContents: a producer parked on a full
// buffer stays parked across a rollback's ReplaceContents, which hands
// every arena row back. The parked sample must not come out of the wait
// still owning a row the arena now also gives to the next one.
func TestArenaParkedPutSurvivesReplaceContents(t *testing.T) {
	b := NewBlockingArena(NewFIFO(1), 2, 2)
	b.PutCopy(1, 1, []float32{1, 1}, []float32{1, 1})
	stored := make(chan bool, 1)
	go func() { stored <- b.PutCopy(1, 2, []float32{2, 2}, []float32{2, 2}) }()
	parked(t, b, 1, 0)
	b.ReplaceContents(func(seen, unseen []Sample) ([]Sample, []Sample) { return nil, nil })
	if !testwait.Recv(t, stored, "the parked PutCopy") {
		t.Fatal("parked PutCopy refused")
	}
	b.GetBatchEach(1, func(int, Sample) {}) // make room; frees sample 2's row
	b.PutCopy(1, 3, []float32{3, 3}, []float32{3, 3})
	if got, want := b.Arena().FreeRows(), b.Arena().Rows()-1; got != want {
		t.Fatalf("%d free rows with one sample stored, want %d", got, want)
	}
}

// TestArenaIngestZeroAllocSteadyState gates the buffer half of the
// zero-copy pipeline: steady-state PutCopy + GetBatchEach on an evicting
// Reservoir must not allocate.
func TestArenaIngestZeroAllocSteadyState(t *testing.T) {
	const inDim, outDim = 7, 256
	const capacity = 512
	b := NewBlockingArena(NewReservoir(capacity, 0, 42), inDim, outDim)
	in := make([]float32, inDim)
	out := make([]float32, outDim)
	discard := func(int, Sample) {}
	step := 0
	iter := func() {
		step++
		b.PutCopy(1, step, in, out)
		// Two gets per put keep the unseen population near capacity/2
		// (gets migrate unseen→seen with probability unseen/total), so
		// the single-threaded driver never random-walks into the
		// unseen-full wall where Put would block.
		b.GetBatchEach(2, discard)
	}
	for i := 0; i < 3*capacity; i++ { // reach eviction steady state
		iter()
	}
	if avg := testing.AllocsPerRun(1000, iter); avg != 0 {
		t.Fatalf("arena ingest allocates %.2f allocs/op, want 0", avg)
	}
}

// TestArenaGrowsWithPopulation pins the memory bound: capacity is a limit,
// not a reservation. A buffer of every kind fed N samples below its
// capacity holds ⌈N/512⌉ chunks, and a drain hands every row back without
// growing the arena.
func TestArenaGrowsWithPopulation(t *testing.T) {
	const capacity = 6000 // the paper's Reservoir
	for _, kind := range Kinds() {
		for _, n := range []int{1, arenaChunkRows - 1, arenaChunkRows, arenaChunkRows + 1, 1500} {
			p, _ := New(Config{Kind: kind, Capacity: capacity, Seed: 5})
			b := NewBlockingArena(p, 2, 3)
			if b.Arena().Rows() != 0 {
				t.Fatalf("%s: a new buffer holds %d rows", kind, b.Arena().Rows())
			}
			for s := 1; s <= n; s++ {
				in, out := arenaSampleData(1, s, 2, 3)
				b.PutCopy(1, s, in, out)
			}
			want := (n + arenaChunkRows - 1) / arenaChunkRows * arenaChunkRows
			if got := b.Arena().Rows(); got != want {
				t.Fatalf("%s fed %d: %d rows, want %d", kind, n, got, want)
			}
			b.EndReception()
			for {
				if _, ok := b.GetBatchEach(64, func(int, Sample) {}); !ok {
					break
				}
			}
			if a := b.Arena(); a.Rows() != want || a.FreeRows() != want {
				t.Fatalf("%s fed %d, drained: %d of %d rows free, want %d of %d", kind, n, a.FreeRows(), a.Rows(), want, want)
			}
		}
	}
}

// TestArenaEvictionReusesRow: a put leases its row after the policy has
// made room, so a full buffer at a whole number of chunks streams on
// without growing, and a refused put leases nothing.
func TestArenaEvictionReusesRow(t *testing.T) {
	b := NewBlockingArena(NewUniformEvict(arenaChunkRows, 0, 3), 2, 3)
	for s := 1; s <= 4*arenaChunkRows; s++ {
		in, out := arenaSampleData(1, s, 2, 3)
		b.PutCopy(1, s, in, out)
	}
	if got := b.Arena().Rows(); got != arenaChunkRows {
		t.Fatalf("a full evicting buffer grew to %d rows, want %d", got, arenaChunkRows)
	}

	fifo := NewBlockingArena(NewFIFO(arenaChunkRows), 2, 3)
	for s := 1; s <= arenaChunkRows; s++ {
		in, out := arenaSampleData(1, s, 2, 3)
		fifo.PutCopy(1, s, in, out)
	}
	fifo.EndReception()
	in, out := arenaSampleData(1, 0, 2, 3)
	if fifo.PutCopy(1, 0, in, out) {
		t.Fatal("a full FIFO stored a straggler")
	}
	if a := fifo.Arena(); a.Rows() != arenaChunkRows || a.FreeRows() != 0 {
		t.Fatalf("refused put: %d of %d rows free, want 0 of %d", a.FreeRows(), a.Rows(), arenaChunkRows)
	}
}

// TestArenaReplaceContentsGrows: restoring more samples than the arena
// holds — a checkpoint's snapshot loaded into a fresh buffer, or a
// rollback's journal on top of live contents — grows it, and every sample
// comes back on a row of its own with its payload.
func TestArenaReplaceContentsGrows(t *testing.T) {
	const n = 2*arenaChunkRows + 100
	src := NewBlockingArena(NewFIFO(0), 2, 3)
	for s := 1; s <= n; s++ {
		in, out := arenaSampleData(2, s, 2, 3)
		src.PutCopy(2, s, in, out)
	}
	var seen, unseen []Sample
	src.WithLock(func(p *Policy) { seen, unseen = p.Snapshot() })

	dst := NewBlockingArena(NewFIFO(0), 2, 3)
	in, out := arenaSampleData(9, 9, 2, 3)
	dst.PutCopy(9, 9, in, out)
	dst.ReplaceContents(func(_, _ []Sample) ([]Sample, []Sample) { return seen, unseen })
	if got, want := dst.Arena().Rows(), 3*arenaChunkRows; got != want || leasedRows(dst) != n {
		t.Fatalf("restored %d samples onto %d of %d rows, want %d of %d", dst.Len(), leasedRows(dst), got, n, want)
	}
	dst.EndReception()
	step := 0
	dst.GetBatchEach(n, func(_ int, s Sample) {
		step++
		wantIn, wantOut := arenaSampleData(2, step, 2, 3)
		if s.Step != step || !slices.Equal(s.Input, wantIn) || !slices.Equal(s.Output, wantOut) {
			t.Fatalf("restored sample %d: step %d %v %v, want %v %v", step, s.Step, s.Input, s.Output, wantIn, wantOut)
		}
	})
	if step != n {
		t.Fatalf("drained %d restored samples, want %d", step, n)
	}
}
