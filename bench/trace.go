package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// span is one timed interval at a layer boundary. Times are nanoseconds on
// the harness clock (nowNs); parent is the index of the span that caused
// this one (-1 for a root); run groups the spans of one repetition.
type span struct {
	name   uint16
	run    uint16
	parent int32
	start  int64
	end    int64
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// the untraced mode: every method is a no-op, so instrumented code paths
// are identical with tracing on and off.
type tracer struct {
	mu    sync.Mutex
	names []string
	index map[string]uint16
	spans []span
	run   uint16
}

func newTracer() *tracer {
	return &tracer{index: map[string]uint16{}}
}

// nextRun starts a new run id for the spans recorded from now on.
func (t *tracer) nextRun() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
}

// add records a finished span and returns its index, usable as a parent.
func (t *tracer) add(name string, parent int32, start, end int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id, ok := t.index[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	t.spans = append(t.spans, span{name: id, run: t.run, parent: parent, start: start, end: end})
	idx := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return idx
}

// setEnd closes a span recorded before its end was known.
func (t *tracer) setEnd(idx int32, end int64) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].end = end
	t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count   int
	TotalNs int64 // sum of durations
	SelfNs  int64 // sum of durations minus the part child spans cover
}

// meanUs is the mean span duration in microseconds.
func (s layerStat) meanUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count) / 1e3
}

// selfTimes computes each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children — two
// concurrent callees — are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		flush := func() {
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		for _, k := range kids {
			lo, hi := max(k[0], s.start), min(k[1], s.end)
			if hi <= lo {
				continue
			}
			if curHi < curLo || lo > curHi {
				flush()
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		flush()
		self[i] -= covered
	}
	return self
}

// stats aggregates spans per name.
func (t *tracer) stats() map[string]layerStat {
	out := map[string]layerStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		st := out[t.names[s.name]]
		st.Count++
		st.TotalNs += s.end - s.start
		st.SelfNs += self[i]
		out[t.names[s.name]] = st
	}
	return out
}

// traceFile is the on-disk form: span rows reference names by index to keep
// a few hundred thousand spans compact.
type traceFile struct {
	Workload string               `json:"workload"`
	Unit     string               `json:"unit"`
	Columns  []string             `json:"columns"`
	Names    []string             `json:"names"`
	Spans    [][5]int64           `json:"spans"`
	Layers   map[string]layerJSON `json:"layers"`
}

type layerJSON struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// write dumps the spans and the per-name aggregation to path.
func (t *tracer) write(path, workload string) error {
	if t == nil {
		return nil
	}
	layers := map[string]layerJSON{}
	for name, st := range t.stats() {
		layers[name] = layerJSON{Count: st.Count, TotalMs: float64(st.TotalNs) / 1e6, SelfMs: float64(st.SelfNs) / 1e6}
	}
	t.mu.Lock()
	tf := traceFile{
		Workload: workload,
		Unit:     "ns since harness start",
		Columns:  []string{"name", "run", "parent", "start", "end"},
		Names:    t.names,
		Spans:    make([][5]int64, len(t.spans)),
		Layers:   layers,
	}
	for i, s := range t.spans {
		tf.Spans[i] = [5]int64{int64(s.name), int64(s.run), int64(s.parent), s.start, s.end}
	}
	t.mu.Unlock()
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
