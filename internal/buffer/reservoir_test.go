package buffer

import (
	"math"
	"testing"
	"testing/quick"
)

func TestReservoirThresholdGate(t *testing.T) {
	r := NewReservoir(100, 5, 1)
	for i := 0; i < 5; i++ {
		r.Put(mkSample(0, i))
	}
	if _, ok := r.TryGet(); ok {
		t.Fatal("yielded at population == threshold (Algorithm 1 waits while ≤ threshold)")
	}
	r.Put(mkSample(0, 5))
	if _, ok := r.TryGet(); !ok {
		t.Fatal("did not yield above threshold")
	}
}

func TestReservoirRepeatsSamples(t *testing.T) {
	// With production stopped and reception not over, the Reservoir must
	// keep yielding already-seen samples (the paper's key throughput
	// property).
	r := NewReservoir(100, 0, 2)
	r.Put(mkSample(0, 0))
	for i := 0; i < 10; i++ {
		s, ok := r.TryGet()
		if !ok || s.Step != 0 {
			t.Fatalf("get %d: ok=%v step=%d", i, ok, s.Step)
		}
	}
	if r.Len() != 1 {
		t.Fatalf("population %d, want 1 (sample retained)", r.Len())
	}
}

func TestReservoirUnseenMigratesToSeen(t *testing.T) {
	r := NewReservoir(10, 0, 3)
	r.Put(mkSample(0, 0))
	if r.UnseenCount() != 1 || r.SeenCount() != 0 {
		t.Fatalf("unseen=%d seen=%d", r.UnseenCount(), r.SeenCount())
	}
	r.TryGet()
	if r.UnseenCount() != 0 || r.SeenCount() != 1 {
		t.Fatalf("after get: unseen=%d seen=%d", r.UnseenCount(), r.SeenCount())
	}
}

func TestReservoirPutRefusesOnlyWhenUnseenFull(t *testing.T) {
	r := NewReservoir(3, 0, 4)
	for i := 0; i < 3; i++ {
		if !r.Put(mkSample(0, i)) {
			t.Fatalf("put %d refused", i)
		}
	}
	// Buffer full of unseen: Put must refuse (producer blocks).
	if r.Put(mkSample(0, 3)) {
		t.Fatal("put accepted while unseen fills capacity")
	}
	// Seeing one sample frees eviction room: a put should now succeed by
	// evicting the seen one.
	if _, ok := r.TryGet(); !ok {
		t.Fatal("get failed")
	}
	if !r.Put(mkSample(0, 3)) {
		t.Fatal("put refused although a seen sample was evictable")
	}
	if r.Len() != 3 {
		t.Fatalf("population %d, want capacity 3", r.Len())
	}
}

func TestReservoirEvictsOnlySeen(t *testing.T) {
	// Fill with capacity-1 unseen plus 1 seen; the next put must evict the
	// seen element, never an unseen one.
	r := NewReservoir(4, 0, 5)
	r.Put(mkSample(9, 9)) // will become the seen one
	s, _ := r.TryGet()
	if s.SimID != 9 {
		t.Fatal("unexpected sample")
	}
	for i := 0; i < 3; i++ {
		r.Put(mkSample(0, i))
	}
	if r.SeenCount() != 1 || r.UnseenCount() != 3 {
		t.Fatalf("seen=%d unseen=%d", r.SeenCount(), r.UnseenCount())
	}
	r.Put(mkSample(0, 3)) // buffer full: must evict the lone seen sample
	if r.SeenCount() != 0 || r.UnseenCount() != 4 {
		t.Fatalf("after eviction: seen=%d unseen=%d", r.SeenCount(), r.UnseenCount())
	}
}

func TestReservoirDrainAfterEndReception(t *testing.T) {
	r := NewReservoir(100, 50, 3)
	const n = 20
	for i := 0; i < n; i++ {
		r.Put(mkSample(0, i))
	}
	// Below threshold: gated.
	if _, ok := r.TryGet(); ok {
		t.Fatal("yielded below threshold")
	}
	r.EndReception()
	got := map[Key]int{}
	for {
		s, ok := r.TryGet()
		if !ok {
			break
		}
		got[s.Key()]++
	}
	if !r.Drained() {
		t.Fatal("not drained")
	}
	if len(got) != n {
		t.Fatalf("drained %d unique, want %d", len(got), n)
	}
	for k, c := range got {
		// While draining each sample is deleted upon selection, so exactly once.
		if c != 1 {
			t.Fatalf("sample %v yielded %d times while draining", k, c)
		}
	}
}

func TestReservoirDrainAfterMixedSeenUnseen(t *testing.T) {
	r := NewReservoir(100, 0, 11)
	for i := 0; i < 10; i++ {
		r.Put(mkSample(0, i))
	}
	for i := 0; i < 5; i++ {
		r.TryGet() // migrate a few to seen (with repetition possible)
	}
	r.EndReception()
	count := 0
	for {
		if _, ok := r.TryGet(); !ok {
			break
		}
		count++
	}
	if count != 10 {
		t.Fatalf("drained %d, want 10 (every stored sample exactly once)", count)
	}
}

// TestReservoirNeverDropsUnseen is the paper's central safety claim: "data
// production can proceed as long as the buffer is not full of unseen
// samples, avoiding discarding any unseen data". Every sample accepted by
// Put must be returned by Get at least once before it can disappear.
func TestReservoirNeverDropsUnseen(t *testing.T) {
	r := NewReservoir(16, 4, 13)
	returned := map[Key]bool{}
	inserted := map[Key]bool{}
	n := 0
	// Heavy overproduction: 10 puts per get, forcing constant eviction.
	for round := 0; round < 200; round++ {
		for i := 0; i < 10; i++ {
			s := mkSample(0, n)
			n++
			if r.Put(s) {
				inserted[s.Key()] = true
			}
		}
		if s, ok := r.TryGet(); ok {
			returned[s.Key()] = true
		}
	}
	r.EndReception()
	for {
		s, ok := r.TryGet()
		if !ok {
			break
		}
		returned[s.Key()] = true
	}
	for k := range inserted {
		if !returned[k] {
			t.Fatalf("sample %v was accepted but never returned (unseen data dropped)", k)
		}
	}
}

func TestReservoirDeterministicWithSeed(t *testing.T) {
	run := func(seed uint64) []int {
		r := NewReservoir(8, 2, seed)
		var out []int
		for i := 0; i < 50; i++ {
			r.Put(mkSample(0, i))
			if s, ok := r.TryGet(); ok {
				out = append(out, s.Step)
			}
		}
		return out
	}
	a, b := run(3), run(3)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different sequences")
		}
	}
}

// TestReservoirSelectionUniform draws many times from a static population
// and checks the empirical distribution is roughly uniform (χ² sanity
// bound).
func TestReservoirSelectionUniform(t *testing.T) {
	const n = 20
	const draws = 20000
	r := NewReservoir(n, 0, 17)
	for i := 0; i < n; i++ {
		r.Put(mkSample(0, i))
	}
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		s, ok := r.TryGet()
		if !ok {
			t.Fatal("get failed")
		}
		counts[s.Step]++
	}
	expected := float64(draws) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 19 degrees of freedom; p=0.001 critical value ≈ 43.8. Seeded RNG, so
	// deterministic — this guards against accidentally biased selection.
	if chi2 > 43.8 {
		t.Fatalf("selection not uniform: chi2 = %v, counts = %v", chi2, counts)
	}
}

// TestReservoirResidencyExpectation reproduces Appendix A: with a full
// buffer of capacity n under continuous insertion (eviction at a random
// location), the expected number of subsequent insertions an element
// survives is n−1.
func TestReservoirResidencyExpectation(t *testing.T) {
	const n = 64
	const inserts = 60000
	r := NewReservoir(n, 0, 23)
	// Fill and mark everything seen so puts evict from the whole buffer.
	for i := 0; i < n; i++ {
		r.Put(mkSample(0, i))
	}
	for r.UnseenCount() > 0 {
		r.TryGet()
	}

	insertedAt := map[Key]int{}
	for i := 0; i < n; i++ {
		insertedAt[Key{0, i}] = 0
	}
	var totalResidency, evictions float64
	for i := 1; i <= inserts; i++ {
		s := mkSample(1, i)
		before := snapshotKeys(r)
		if !r.Put(s) {
			t.Fatal("put refused")
		}
		// Immediately mark the new sample seen to stay in the all-seen regime.
		for r.UnseenCount() > 0 {
			r.TryGet()
		}
		after := snapshotKeys(r)
		for k := range before {
			if !after[k] {
				totalResidency += float64(i - insertedAt[k])
				evictions++
			}
		}
		insertedAt[s.Key()] = i
	}
	mean := totalResidency / evictions
	want := float64(n - 1)
	if math.Abs(mean-want)/want > 0.1 {
		t.Fatalf("mean residency %v, Appendix A predicts %v (±10%%)", mean, want)
	}
}

func snapshotKeys(r *Policy) map[Key]bool {
	out := make(map[Key]bool, r.Len())
	for _, s := range r.seen {
		out[s.Key()] = true
	}
	for _, s := range r.unseen {
		out[s.Key()] = true
	}
	return out
}

// Property: the Reservoir never exceeds its capacity and never yields while
// gated, across random operation sequences.
func TestReservoirInvariantsProperty(t *testing.T) {
	f := func(ops []byte, seed uint64) bool {
		capacity := 8
		threshold := 3
		r := NewReservoir(capacity, threshold, seed)
		n := 0
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // put twice as often as get
				r.Put(mkSample(0, n))
				n++
			case 2:
				before := r.Len()
				_, ok := r.TryGet()
				if ok && before <= threshold {
					return false // yielded while gated
				}
			}
			if r.Len() > capacity {
				return false
			}
			if r.UnseenCount() < 0 || r.SeenCount() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewFromConfig(t *testing.T) {
	for _, kind := range Kinds() {
		p, err := New(Config{Kind: kind, Capacity: 10, Threshold: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if p.kind != kind || p.capacity != 10 {
			t.Fatalf("kind %q capacity %d, want %q 10", p.kind, p.capacity, kind)
		}
	}
	if _, err := New(Config{Kind: "bogus"}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}
