package buffer

// FIFO is the streaming baseline (§3.2.3): samples are batched for training
// in exactly the order they are received, each seen once and only once.
// Batch extraction is possible as soon as a single sample is available;
// production is suspended when the queue is full.
type FIFO struct {
	capacity int
	queue    []Sample
	head     int // index of the next sample to pop; storage is compacted lazily
	over     bool
}

// NewFIFO builds a FIFO buffer with the given capacity (0 = unbounded).
func NewFIFO(capacity int) *FIFO {
	return &FIFO{capacity: capacity}
}

// Name implements Policy.
func (f *FIFO) Name() string { return string(FIFOKind) }

// Put implements Policy.
func (f *FIFO) Put(s Sample) bool {
	if f.capacity > 0 && f.Len() >= f.capacity {
		return false
	}
	f.queue = append(f.queue, s)
	return true
}

// TryGet implements Policy.
func (f *FIFO) TryGet() (Sample, bool) {
	if f.head >= len(f.queue) {
		return Sample{}, false
	}
	s := f.queue[f.head]
	f.queue[f.head] = Sample{} // release references for GC
	f.head++
	// Compact once the dead prefix dominates, keeping Put amortized O(1).
	if f.head > 64 && f.head*2 >= len(f.queue) {
		n := copy(f.queue, f.queue[f.head:])
		for i := n; i < len(f.queue); i++ {
			f.queue[i] = Sample{}
		}
		f.queue = f.queue[:n]
		f.head = 0
	}
	return s, true
}

// EndReception implements Policy.
func (f *FIFO) EndReception() { f.over = true }

// ReceptionOver implements Policy.
func (f *FIFO) ReceptionOver() bool { return f.over }

// Len implements Policy.
func (f *FIFO) Len() int { return len(f.queue) - f.head }

// Capacity implements Policy.
func (f *FIFO) Capacity() int { return f.capacity }

// Drained implements Policy.
func (f *FIFO) Drained() bool { return f.over && f.Len() == 0 }
