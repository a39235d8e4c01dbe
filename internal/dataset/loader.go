package dataset

import (
	"math/rand/v2"
	"sync"

	"melissa/internal/buffer"
)

// Loader serves shuffled batches for multi-epoch offline training, with
// parallel reader workers prefetching samples — the Go analogue of the
// paper's PyTorch DataLoader with 8 workers per GPU (§4.6). Prefetch depth
// is bounded, so epochs stream without materializing the dataset in memory.
type Loader struct {
	ds      *Dataset
	batch   int
	workers int
	rng     *rand.Rand
}

// NewLoader builds a loader. workers ≤ 0 defaults to 8, matching the paper.
func NewLoader(ds *Dataset, batchSize, workers int, seed uint64) *Loader {
	if workers <= 0 {
		workers = 8
	}
	if batchSize < 1 {
		batchSize = 1
	}
	return &Loader{
		ds:      ds,
		batch:   batchSize,
		workers: workers,
		rng:     rand.New(rand.NewPCG(seed, seed^0x1f83d9abfb41bd6b)),
	}
}

type loadItem struct {
	pos    int
	sample buffer.Sample
	err    error
}

// Epoch streams one full pass over the dataset in a fresh uniform shuffle
// (gradient descent "expects batches built by uniformly sampling the fixed
// dataset", §3.2.1), delivering batches to yield in shuffle order. Each
// sample appears exactly once per epoch. The first read or yield error
// aborts the epoch.
func (l *Loader) Epoch(yield func(batch []buffer.Sample) error) error {
	perm := l.rng.Perm(l.ds.Len())

	done := make(chan struct{})
	defer close(done)

	work := make(chan int)
	go func() {
		defer close(work)
		for i := range perm {
			select {
			case work <- i:
			case <-done:
				return
			}
		}
	}()

	out := make(chan loadItem, l.workers*l.batch)
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s, err := l.ds.Get(perm[i])
				select {
				case out <- loadItem{pos: i, sample: s, err: err}:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// Reorder completed reads back into shuffle order; the pending map is
	// bounded by the out-channel capacity plus the worker count.
	pending := make(map[int]loadItem)
	nextPos := 0
	batch := make([]buffer.Sample, 0, l.batch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		b := batch
		batch = make([]buffer.Sample, 0, l.batch)
		return yield(b)
	}
	for it := range out {
		pending[it.pos] = it
		for {
			cur, ok := pending[nextPos]
			if !ok {
				break
			}
			delete(pending, nextPos)
			nextPos++
			if cur.err != nil {
				return cur.err
			}
			batch = append(batch, cur.sample)
			if len(batch) == l.batch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}
