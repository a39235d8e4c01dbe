package buffer

import (
	"testing"
	"testing/quick"
)

func mkSample(sim, step int) Sample {
	return Sample{SimID: sim, Step: step, Input: []float32{float32(sim), float32(step)}}
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO(0)
	for i := 0; i < 10; i++ {
		if !f.Put(mkSample(0, i)) {
			t.Fatalf("put %d refused", i)
		}
	}
	for i := 0; i < 10; i++ {
		s, ok := f.TryGet()
		if !ok || s.Step != i {
			t.Fatalf("get %d: ok=%v step=%d", i, ok, s.Step)
		}
	}
	if _, ok := f.TryGet(); ok {
		t.Fatal("empty FIFO yielded a sample")
	}
}

func TestFIFOCapacity(t *testing.T) {
	f := NewFIFO(2)
	if !f.Put(mkSample(0, 0)) || !f.Put(mkSample(0, 1)) {
		t.Fatal("puts within capacity refused")
	}
	if f.Put(mkSample(0, 2)) {
		t.Fatal("put beyond capacity accepted")
	}
	if _, ok := f.TryGet(); !ok {
		t.Fatal("get failed")
	}
	if !f.Put(mkSample(0, 2)) {
		t.Fatal("put after get refused")
	}
}

func TestFIFOYieldsImmediately(t *testing.T) {
	// "Batch extraction is enabled as soon as the buffer can provide one."
	f := NewFIFO(100)
	f.Put(mkSample(1, 1))
	if _, ok := f.TryGet(); !ok {
		t.Fatal("FIFO must yield with a single stored sample")
	}
}

func TestFIFODrained(t *testing.T) {
	f := NewFIFO(0)
	f.Put(mkSample(0, 0))
	if f.Drained() {
		t.Fatal("drained before EndReception")
	}
	f.EndReception()
	if f.Drained() {
		t.Fatal("drained while non-empty")
	}
	f.TryGet()
	if !f.Drained() {
		t.Fatal("not drained after emptying")
	}
}

func TestFIFOCompaction(t *testing.T) {
	// Interleave puts and gets past the compaction trigger and verify
	// ordering is preserved throughout.
	f := NewFIFO(0)
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			f.Put(mkSample(0, next))
			next++
		}
		for i := 0; i < 15; i++ {
			s, ok := f.TryGet()
			if !ok || s.Step != expect {
				t.Fatalf("round %d: got step %d ok=%v, want %d", round, s.Step, ok, expect)
			}
			expect++
		}
	}
	for {
		s, ok := f.TryGet()
		if !ok {
			break
		}
		if s.Step != expect {
			t.Fatalf("drain: got %d want %d", s.Step, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("lost samples: drained %d, put %d", expect, next)
	}
}

// Property: FIFO conserves samples — everything put comes out exactly once,
// in order, regardless of interleaving pattern.
func TestFIFOConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewFIFO(0)
		putCount, getCount := 0, 0
		for _, isPut := range ops {
			if isPut {
				q.Put(mkSample(0, putCount))
				putCount++
			} else if s, ok := q.TryGet(); ok {
				if s.Step != getCount {
					return false
				}
				getCount++
			}
		}
		for {
			s, ok := q.TryGet()
			if !ok {
				break
			}
			if s.Step != getCount {
				return false
			}
			getCount++
		}
		return getCount == putCount && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
