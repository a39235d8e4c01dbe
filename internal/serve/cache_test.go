package serve

import "testing"

func cacheKey(params []float32, t float32) []byte {
	return appendKey(nil, params, t)
}

// TestCacheLRUEviction: the cache must hold exactly capacity entries,
// evicting the least recently used — and a get must refresh recency.
func TestCacheLRUEviction(t *testing.T) {
	c := newPredictCache(3)
	var dst []float32
	put := func(id float32) { c.put(cacheKey([]float32{id}, 0), 1, []float32{id * 10}) }
	has := func(id float32) bool {
		f, _ := c.get(cacheKey([]float32{id}, 0), dst)
		return f != nil
	}
	put(1)
	put(2)
	put(3)
	if !has(1) || !has(2) || !has(3) {
		t.Fatal("warm entries missing")
	}
	has(1) // refresh 1 → LRU order is now 2, 3, 1
	put(4) // evicts 2
	if has(2) {
		t.Fatal("entry 2 survived eviction")
	}
	if !has(1) || !has(3) || !has(4) {
		t.Fatal("wrong entry evicted")
	}
	if c.len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.len())
	}
	_, _, evictions := c.counters()
	if evictions != 1 {
		t.Fatalf("%d evictions, want 1", evictions)
	}
}

// TestCacheHitReturnsStoredField: hits must copy out the exact field and
// epoch, misses must return nil, and counters must track both.
func TestCacheHitReturnsStoredField(t *testing.T) {
	c := newPredictCache(8)
	key := cacheKey([]float32{1, 2, 3}, 0.5)
	want := []float32{9, 8, 7}
	c.put(key, 5, want)
	got, epoch := c.get(key, nil)
	if epoch != 5 || len(got) != len(want) {
		t.Fatalf("hit returned %v epoch %d", got, epoch)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("field[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if f, _ := c.get(cacheKey([]float32{1, 2, 3}, 0.25), nil); f != nil {
		t.Fatal("different t hit the same entry")
	}
	hits, misses, _ := c.counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestCacheFlush empties everything at once (the reload path) and raises
// the insert floor: puts from batches that started on the pre-reload model
// carry an older epoch and must be dropped, not re-inserted.
func TestCacheFlush(t *testing.T) {
	c := newPredictCache(8)
	for i := float32(0); i < 5; i++ {
		c.put(cacheKey([]float32{i}, 0), 1, []float32{i})
	}
	c.flush(2)
	if c.len() != 0 {
		t.Fatalf("cache holds %d entries after flush", c.len())
	}
	if f, _ := c.get(cacheKey([]float32{1}, 0), nil); f != nil {
		t.Fatal("flushed entry still served")
	}
	c.put(cacheKey([]float32{9}, 0), 1, []float32{9}) // straggler from the old model
	if f, _ := c.get(cacheKey([]float32{9}, 0), nil); f != nil {
		t.Fatal("stale-epoch put landed after flush")
	}
	c.put(cacheKey([]float32{1}, 0), 2, []float32{1}) // reusable after flush
	if f, _ := c.get(cacheKey([]float32{1}, 0), nil); f == nil {
		t.Fatal("cache unusable after flush")
	}
}

// TestCacheDisabled: a nil cache (capacity 0) must no-op on every call.
func TestCacheDisabled(t *testing.T) {
	c := newPredictCache(0)
	if c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	c.put(cacheKey([]float32{1}, 0), 1, []float32{1})
	if f, _ := c.get(cacheKey([]float32{1}, 0), nil); f != nil {
		t.Fatal("disabled cache returned a hit")
	}
	c.flush(1)
	if h, m, e := c.counters(); h|m|e != 0 {
		t.Fatal("disabled cache counted something")
	}
}
