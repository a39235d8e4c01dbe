package des

import "testing"

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v", order)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("clock %v", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var fired []Time
	s.After(1, func() {
		fired = append(fired, s.Now())
		s.After(2, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired %v", fired)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	s := New()
	var at Time = -1
	s.At(5, func() {
		s.At(2, func() { at = s.Now() }) // past: fires "now"
	})
	s.Run()
	if at != 5 {
		t.Fatalf("past event fired at %v, want 5", at)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestManyEventsStaySorted(t *testing.T) {
	s := New()
	// Insert pseudo-random times; execution must be monotone.
	last := Time(-1)
	x := uint64(12345)
	for i := 0; i < 2000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		tm := Time(x % 10000)
		s.At(tm, func() {
			if s.Now() < last {
				t.Errorf("time went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
		})
	}
	s.Run()
}
