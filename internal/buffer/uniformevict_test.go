package buffer

import "testing"

func TestUniformEvictDropsUnseenUnderPressure(t *testing.T) {
	// Heavy overproduction without consumption: unlike the Reservoir,
	// UniformEvict must discard unseen samples.
	u := NewUniformEvict(16, 0, 3)
	for i := 0; i < 400; i++ {
		if !u.Put(mkSample(0, i)) {
			t.Fatal("UniformEvict.Put must always accept")
		}
	}
	if u.Len() != 16 || u.SeenCount() != 0 {
		t.Fatalf("population %d (%d seen), want capacity, all unseen", u.Len(), u.SeenCount())
	}
	// Nothing was ever selected, so each of the 384 evictions dropped an
	// unseen sample, which can never be retrieved.
	u.EndReception()
	got := map[Key]bool{}
	for {
		s, ok := u.TryGet()
		if !ok {
			break
		}
		got[s.Key()] = true
	}
	if len(got) != 16 {
		t.Fatalf("retrieved %d of 400 samples, want the 16 left after 384 unseen drops", len(got))
	}
}

func TestUniformEvictThresholdAndRepeat(t *testing.T) {
	u := NewUniformEvict(100, 5, 7)
	for i := 0; i < 5; i++ {
		u.Put(mkSample(0, i))
	}
	if _, ok := u.TryGet(); ok {
		t.Fatal("yielded at threshold")
	}
	u.Put(mkSample(0, 5))
	if _, ok := u.TryGet(); !ok {
		t.Fatal("did not yield above threshold")
	}
	// With replacement: population unchanged by gets pre-drain.
	if u.Len() != 6 {
		t.Fatalf("population %d", u.Len())
	}
	if u.SeenCount() != 1 || u.UnseenCount() != 5 {
		t.Fatalf("seen/unseen %d/%d", u.SeenCount(), u.UnseenCount())
	}
}

func TestUniformEvictDrains(t *testing.T) {
	u := NewUniformEvict(50, 10, 9)
	for i := 0; i < 20; i++ {
		u.Put(mkSample(0, i))
	}
	u.EndReception()
	count := 0
	for {
		if _, ok := u.TryGet(); !ok {
			break
		}
		count++
	}
	if count != 20 || !u.Drained() {
		t.Fatalf("drained %d, drained=%v", count, u.Drained())
	}
}

func TestUniformEvictViaConfig(t *testing.T) {
	p, err := New(Config{Kind: UniformEvictKind, Capacity: 10, Threshold: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.kind != UniformEvictKind {
		t.Fatalf("kind %q", p.kind)
	}
}

// TestReservoirVsUniformEvictCoverage contrasts the two policies under the
// same overproduction pattern: the Reservoir covers every sample, the
// ablation loses a substantial fraction.
func TestReservoirVsUniformEvictCoverage(t *testing.T) {
	coverage := func(p *Policy) int {
		got := map[Key]bool{}
		n := 0
		for round := 0; round < 100; round++ {
			for i := 0; i < 8; i++ { // 8 puts per get
				p.Put(mkSample(0, n))
				n++
			}
			if s, ok := p.TryGet(); ok {
				got[s.Key()] = true
			}
		}
		p.EndReception()
		for {
			s, ok := p.TryGet()
			if !ok {
				break
			}
			got[s.Key()] = true
		}
		return len(got)
	}
	// The Reservoir blocks production when full of unseen (Put refusals
	// here mean the producer would stall, no loss); UniformEvict accepts
	// everything and silently loses data.
	resCov := coverage(NewReservoir(32, 0, 5))
	uniCov := coverage(NewUniformEvict(32, 0, 5))
	if uniCov >= resCov {
		t.Fatalf("ablation coverage %d should be below Reservoir-style coverage %d", uniCov, resCov)
	}
}
