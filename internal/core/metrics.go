package core

import (
	"sync"
	"time"

	"melissa/internal/buffer"
)

// LossPoint is one point of a training or validation curve.
type LossPoint struct {
	Batch   int     // global batch counter when recorded
	Samples int     // cumulative samples (with repetition) across ranks
	Value   float64 // MSE in normalized units
}

// Metrics aggregates training statistics across ranks. All methods are safe
// for concurrent use; the trainer's rank goroutines share one instance.
type Metrics struct {
	mu sync.Mutex

	batches int
	samples int

	trainLoss  []LossPoint
	validation []LossPoint

	occurrences map[buffer.Key]int

	// Elasticity events (the group's view, recorded by the elastic server):
	// current membership epoch, how many times the group re-formed, and the
	// batch counter the last re-formation rolled back to (-1 when none).
	groupEpoch        int
	reforms           int
	lastRollbackBatch int

	// Gradient-collective wire traffic (bytes over the group's network
	// links, both directions), accumulated across group re-formations. With
	// a compressed codec (-grad-compress=f16) these run at about half the
	// full-width figures — the observable payoff of the wire codec.
	wireSent uint64
	wireRecv uint64

	start, end time.Time
}

// NewMetrics builds an empty collector. trackOccurrences enables the
// per-sample repetition histogram of Figure 3.
func NewMetrics(trackOccurrences bool) *Metrics {
	m := &Metrics{lastRollbackBatch: -1}
	if trackOccurrences {
		m.occurrences = make(map[buffer.Key]int)
	}
	return m
}

// SetGroupEpoch records the elastic group's current membership epoch.
func (m *Metrics) SetGroupEpoch(epoch int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.groupEpoch = epoch
}

// RecordReform tallies one group re-formation and the batch counter it
// rolled the trainer back to (-1 when the re-formation had no committed
// checkpoint to restore), so operators can see elasticity events in the
// periodic log line.
func (m *Metrics) RecordReform(epoch, rollbackBatch int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.groupEpoch = epoch
	m.reforms++
	m.lastRollbackBatch = rollbackBatch
}

// GroupEpoch returns the elastic group's current membership epoch (0 for a
// lone process).
func (m *Metrics) GroupEpoch() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groupEpoch
}

// Reforms returns how many times the group re-formed around a failure or
// membership change.
func (m *Metrics) Reforms() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reforms
}

// LastRollbackBatch returns the batch counter the most recent re-formation
// restored, or -1 when it had nothing committed to restore (or the group
// never re-formed at all).
func (m *Metrics) LastRollbackBatch() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastRollbackBatch
}

// AddWireBytes accumulates gradient-collective wire traffic. The trainer
// records per-step deltas of the communicator's counters, so totals stay
// monotonic across elastic group re-formations (each new ring restarts its
// own counters at zero).
func (m *Metrics) AddWireBytes(sent, recv uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wireSent += sent
	m.wireRecv += recv
}

// WireBytes returns the cumulative gradient-collective wire traffic (zero
// for in-process channel groups, which never touch a network link).
func (m *Metrics) WireBytes() (sent, recv uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wireSent, m.wireRecv
}

// Begin stamps the training start time.
func (m *Metrics) Begin() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.start = time.Now()
}

// Finish stamps the training end time.
func (m *Metrics) Finish() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.end = time.Now()
}

// RestoreCounts seeds the counters from a checkpoint.
func (m *Metrics) RestoreCounts(batches, samples int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches = batches
	m.samples = samples
}

// RecordStep accumulates one synchronized training step: the global batch
// increment and the samples consumed across ranks.
func (m *Metrics) RecordStep(samples int) (batch, totalSamples int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	m.samples += samples
	return m.batches, m.samples
}

// RecordTrainLoss appends a training-loss point.
func (m *Metrics) RecordTrainLoss(batch, samples int, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trainLoss = append(m.trainLoss, LossPoint{Batch: batch, Samples: samples, Value: v})
}

// RecordValidation appends a validation-loss point.
func (m *Metrics) RecordValidation(batch, samples int, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.validation = append(m.validation, LossPoint{Batch: batch, Samples: samples, Value: v})
}

// CountKeys tallies sample occurrences for the Figure 3 histogram. The
// trainer records keys during batch assembly (payloads alias recycled
// arena rows, so the Sample values themselves are not retained).
func (m *Metrics) CountKeys(keys []buffer.Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.occurrences == nil {
		return
	}
	for _, k := range keys {
		m.occurrences[k]++
	}
}

// Batches returns the global number of synchronized steps.
func (m *Metrics) Batches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches
}

// Samples returns the cumulative samples consumed across ranks, including
// Reservoir repetitions.
func (m *Metrics) Samples() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples
}

// TrainLoss returns the recorded training curve.
func (m *Metrics) TrainLoss() []LossPoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]LossPoint(nil), m.trainLoss...)
}

// Validation returns the recorded validation curve.
func (m *Metrics) Validation() []LossPoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]LossPoint(nil), m.validation...)
}

// FinalValidation returns the last validation value, or NaN-free zero when
// none was recorded.
func (m *Metrics) FinalValidation() (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.validation) == 0 {
		return 0, false
	}
	return m.validation[len(m.validation)-1].Value, true
}

// MinValidation returns the lowest recorded validation loss — the paper's
// "Min. MSE" column of Table 1.
func (m *Metrics) MinValidation() (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.validation) == 0 {
		return 0, false
	}
	min := m.validation[0].Value
	for _, p := range m.validation[1:] {
		if p.Value < min {
			min = p.Value
		}
	}
	return min, true
}

// Occurrences returns a copy of the per-sample selection counts.
func (m *Metrics) Occurrences() map[buffer.Key]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[buffer.Key]int, len(m.occurrences))
	for k, v := range m.occurrences {
		out[k] = v
	}
	return out
}

// WallTime returns the measured training duration.
func (m *Metrics) WallTime() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.start.IsZero() {
		return 0
	}
	end := m.end
	if end.IsZero() {
		end = time.Now()
	}
	return end.Sub(m.start)
}

// Throughput returns consumed samples per wall-clock second, the metric of
// the paper's Figure 2 and throughput columns.
func (m *Metrics) Throughput() float64 {
	wall := m.WallTime().Seconds()
	if wall <= 0 {
		return 0
	}
	return float64(m.Samples()) / wall
}
