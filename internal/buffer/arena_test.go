package buffer

import (
	"testing"

	"melissa/internal/testwait"
)

// unseenCount reads the policy's unseen population under the lock.
func unseenCount(b *Blocking) int {
	var n int
	b.WithLock(func(p Policy) { n = p.(PopulationCounter).UnseenCount() })
	return n
}

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
// rows in place instead of growing the arena.
func TestArenaRowsRecycled(t *testing.T) {
	const inDim, outDim = 2, 4
	const capacity = 64
	b := NewBlockingArena(NewReservoir(capacity, 0, 1), inDim, outDim)
	rows := b.Arena().Rows()
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
	}
	if got := b.Arena().Rows(); got != rows {
		t.Fatalf("arena grew from %d to %d rows; eviction must recycle in place", rows, got)
	}
	// Conservation: every row is either free or accounted to a resident
	// sample.
	resident := b.Len()
	if free := b.Arena().FreeRows(); free+resident != rows {
		t.Fatalf("row leak: %d free + %d resident != %d total", free, resident, rows)
	}
}

// TestArenaPolicySequenceUnchanged drives two identically-seeded Reservoirs
// — a bare policy through Put/TryGet, and one wrapped in a buffer through
// PutCopy/GetBatchEach — and requires the identical extraction sequence:
// the arena is invisible to the policy's RNG stream, keeping the paper's
// buffer statistics bit-identical.
func TestArenaPolicySequenceUnchanged(t *testing.T) {
	const inDim, outDim = 2, 3
	// Threshold 0: GetBatchEach blocks below the threshold, and this test
	// drives the buffer single-threaded.
	const capacity, threshold = 32, 0
	bare := NewReservoir(capacity, threshold, 99)
	arena := NewBlockingArena(NewReservoir(capacity, threshold, 99), inDim, outDim)

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
			// Single-threaded: make room identically on both before Put
			// would refuse.
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
	if len(bareSeq) != len(arenaSeq) {
		t.Fatalf("sequence lengths differ: %d vs %d", len(bareSeq), len(arenaSeq))
	}
	for i := range bareSeq {
		if bareSeq[i] != arenaSeq[i] {
			t.Fatalf("extraction %d: bare %v, arena %v", i, bareSeq[i], arenaSeq[i])
		}
	}
}

// TestArenaRefusesMisSizedPayload pins that a payload which is not exactly
// one row is never stored — neither put nor restored — instead of being
// truncated into a row or kept off the arena.
func TestArenaRefusesMisSizedPayload(t *testing.T) {
	b := NewBlockingArena(NewFIFO(0), 2, 3)
	free := b.Arena().FreeRows()
	for _, p := range [][2][]float32{{{1, 2, 3}, {4, 5, 6}}, {{1, 2}, {3, 4, 5, 6}}, {{1, 2}, {3, 4}}} {
		if b.PutCopy(1, 1, p[0], p[1]) {
			t.Fatalf("PutCopy stored a %d/%d payload in a 2/3 row", len(p[0]), len(p[1]))
		}
	}
	if b.Len() != 0 || b.Arena().FreeRows() != free {
		t.Fatalf("refused payloads left %d samples and %d of %d rows free", b.Len(), b.Arena().FreeRows(), free)
	}
	b.ReplaceContents(func(_, _ []Sample) ([]Sample, []Sample) {
		return nil, []Sample{{Input: []float32{1, 2}, Output: []float32{3, 4, 5}}, {Input: []float32{1}, Output: []float32{3, 4, 5}}}
	})
	if b.Len() != 1 || b.Arena().FreeRows() != free-1 {
		t.Fatalf("restore kept %d samples on %d rows, want the one that fits on one row", b.Len(), free-b.Arena().FreeRows())
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
