package serve

import (
	"encoding/binary"
	"math"
	"sync"
)

// predictCache is an LRU map from interned (params, t) query keys to
// predicted fields. Exact float32 bit-matching is the right key discipline
// here: a forward row depends on no other row (see melissa.Replica), so a
// query's answer is a function of the checkpoint and the query bits alone,
// and a cached field is indistinguishable from a fresh compute.
//
// A hot reload flushes the whole cache (see flush), so a hit is always a
// field the serving checkpoint computed.
//
// The hit path is allocation-free: keys are built in a caller-owned scratch
// buffer and looked up via the compiler's no-copy map[string(bytes)] form,
// and the hit copies the field into a caller-owned buffer under the lock
// (entries recycle their storage on eviction, so references must not
// escape). Inserts allocate only the interned key string once the cache is
// warm — evicted entries donate their field capacity to the newcomer.
type predictCache struct {
	mu       sync.Mutex
	capacity int
	minEpoch uint32 // inserts below this epoch are stale (see flush)
	entries  map[string]*cacheEntry
	head     *cacheEntry // most recently used
	tail     *cacheEntry // least recently used

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key        string
	epoch      uint32
	field      []float32
	prev, next *cacheEntry
}

func newPredictCache(capacity int) *predictCache {
	if capacity <= 0 {
		return nil // a nil cache disables caching at every call site
	}
	return &predictCache{
		capacity: capacity,
		entries:  make(map[string]*cacheEntry, capacity),
	}
}

// appendKey builds the interned query key: the little-endian bit patterns
// of every parameter followed by t. Bit patterns, not values, so -0 and
// NaN payloads key distinctly and key building needs no float compares.
func appendKey(dst []byte, params []float32, t float32) []byte {
	for _, v := range params {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(t))
}

// get looks up a query and, on a hit, copies the cached field into dst
// (grown as needed) and returns it with the epoch that computed it. Returns
// nil on a miss. key is the caller's appendKey scratch; it is not retained.
func (c *predictCache) get(key []byte, dst []float32) ([]float32, uint32) {
	if c == nil {
		return nil, 0
	}
	c.mu.Lock()
	e, ok := c.entries[string(key)] // no-copy string conversion in map lookup
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, 0
	}
	c.moveToFront(e)
	c.hits++
	if cap(dst) < len(e.field) {
		dst = make([]float32, len(e.field))
	}
	dst = dst[:len(e.field)]
	copy(dst, e.field)
	epoch := e.epoch
	c.mu.Unlock()
	return dst, epoch
}

// put inserts a freshly computed field, evicting the least recently used
// entry at capacity. The evicted entry's struct and field storage are
// reused, so a warm cache allocates only the interned key per insert.
// Inserts tagged with an epoch below the flush floor are dropped: they come
// from in-flight batches that started on a pre-reload model and would
// otherwise repopulate the cache with stale fields after the flush.
func (c *predictCache) put(key []byte, epoch uint32, field []float32) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if epoch < c.minEpoch {
		c.mu.Unlock()
		return
	}
	if e, ok := c.entries[string(key)]; ok {
		// Raced with another worker computing the same query; refresh.
		e.epoch = epoch
		e.field = append(e.field[:0], field...)
		c.moveToFront(e)
		c.mu.Unlock()
		return
	}
	var e *cacheEntry
	if len(c.entries) >= c.capacity {
		e = c.tail
		c.unlink(e)
		delete(c.entries, e.key)
		c.evictions++
	} else {
		e = &cacheEntry{}
	}
	e.key = string(key)
	e.epoch = epoch
	e.field = append(e.field[:0], field...)
	c.entries[e.key] = e
	c.pushFront(e)
	c.mu.Unlock()
}

// flush drops every entry and raises the insert floor to minEpoch. Called on
// hot reload: the new checkpoint answers every query differently, so the
// whole cache is stale at once — and batches still running on the old model
// must not be allowed to re-insert after the flush (put drops them).
func (c *predictCache) flush(minEpoch uint32) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if minEpoch > c.minEpoch {
		c.minEpoch = minEpoch
	}
	clear(c.entries)
	c.head, c.tail = nil, nil
	c.mu.Unlock()
}

// counters returns the monotonic hit/miss/eviction totals.
func (c *predictCache) counters() (hits, misses, evictions uint64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

func (c *predictCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *predictCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *predictCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *predictCache) pushFront(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}
