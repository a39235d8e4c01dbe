package core

import (
	"sync"

	"melissa/internal/buffer"
	"melissa/internal/telemetry"
)

// LossPoint is one point of a training or validation curve.
type LossPoint struct {
	Batch   int     // global batch counter when recorded
	Samples int     // cumulative samples (with repetition) across ranks
	Value   float64 // MSE in normalized units
}

// Metrics holds a run's results: the training and validation curves and,
// when tracked, how often each sample was trained on. How the run is going
// — step and sample counts, wire bytes, the wall time — is in its
// telemetry registry. All methods are safe for concurrent use; the
// trainer's rank goroutines share one instance.
type Metrics struct {
	mu sync.Mutex

	trainLoss  []LossPoint
	validation []LossPoint

	occurrences map[buffer.Key]int

	tel *telemetry.Registry
}

// NewMetrics builds an empty collector with a fresh telemetry registry.
// trackOccurrences enables the per-sample repetition histogram of Figure 3.
func NewMetrics(trackOccurrences bool) *Metrics {
	m := &Metrics{tel: new(telemetry.Registry)}
	if trackOccurrences {
		m.occurrences = make(map[buffer.Key]int)
	}
	return m
}

// Telemetry returns the registry the run's counters and gauges go to.
func (m *Metrics) Telemetry() *telemetry.Registry { return m.tel }

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
