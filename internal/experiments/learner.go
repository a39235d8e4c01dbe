package experiments

import (
	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/tensor"
)

// learner performs real gradient descent for the quality experiments, both
// inside the cluster simulator (online runs: its Step method is the
// OnTrainStep hook) and for the offline baselines. Multi-GPU data
// parallelism is applied in its mathematically equivalent form: the
// concatenation of the per-rank batches trained as one large batch — with
// equal rank batches, averaging per-rank MSE gradients is identical to the
// gradient of the concatenated batch.
type learner struct {
	scale Scale
	norm  core.Normalizer
	net   *nn.Network
	adam  *opt.Adam
	loss  *nn.MSELoss
	sched opt.Schedule

	valSet        *core.ValidationSet
	valEverySmpls int
	nextVal       int

	// Grow-on-demand batch storage plus reusable view headers, so the
	// per-batch assembly allocates nothing once the largest batch size
	// has been seen.
	inBuf, outBuf   *tensor.Matrix
	inView, outView tensor.Matrix

	batches    int
	samples    int
	trainCurve []core.LossPoint
	valCurve   []core.LossPoint
	occ        map[buffer.Key]int
}

// batchTensors returns rows-row views over the learner's reusable batch
// storage, growing it when a larger batch arrives.
func (l *learner) batchTensors(rows int) (in, out *tensor.Matrix) {
	if l.inBuf == nil || l.inBuf.Rows < rows {
		l.inBuf = tensor.New(rows, l.norm.InputDim())
		l.outBuf = tensor.New(rows, l.norm.OutputDim())
	}
	l.inBuf.ViewRows(&l.inView, 0, rows)
	l.outBuf.ViewRows(&l.outView, 0, rows)
	return &l.inView, &l.outView
}

func newLearner(scale Scale, valSet *core.ValidationSet, sched opt.Schedule, trackOcc bool) (*learner, error) {
	net, err := scale.ModelSpec().Build()
	if err != nil {
		return nil, err
	}
	l := &learner{
		scale:         scale,
		norm:          scale.CoreNormalizer(),
		net:           net,
		adam:          opt.NewAdam(1e-3),
		loss:          nn.NewMSELoss(),
		sched:         sched,
		valSet:        valSet,
		valEverySmpls: scale.ValidateEverySamples,
		nextVal:       scale.ValidateEverySamples,
	}
	if trackOcc {
		l.occ = make(map[buffer.Key]int)
	}
	return l, nil
}

// Step trains on the concatenation of the per-rank batches; it is shaped to
// plug directly into simrun.Options.OnTrainStep.
func (l *learner) Step(_ int, batches [][]buffer.Sample) {
	flat := batches[0]
	if len(batches) > 1 {
		flat = nil
		for _, b := range batches {
			flat = append(flat, b...)
		}
	}
	l.TrainBatch(flat)
}

// TrainBatch performs one forward/backward/update on a raw batch.
func (l *learner) TrainBatch(batch []buffer.Sample) {
	if len(batch) == 0 {
		return
	}
	in, out := l.batchTensors(len(batch))
	core.BuildBatch(l.norm, batch, in, out)

	l.net.ZeroGrad()
	pred := l.net.Forward(in)
	lossVal := l.loss.Forward(pred, out)
	l.net.Backward(l.loss.Backward(pred, out))
	if l.sched != nil {
		l.adam.SetLR(l.sched.LR(l.samples))
	}
	l.adam.StepFlat(l.net.FlatParams(), l.net.FlatGrads())

	l.batches++
	l.samples += len(batch)
	l.trainCurve = append(l.trainCurve, core.LossPoint{Batch: l.batches, Samples: l.samples, Value: lossVal})
	if l.occ != nil {
		for _, s := range batch {
			l.occ[s.Key()]++
		}
	}
	if l.valSet != nil && l.valEverySmpls > 0 && l.samples >= l.nextVal {
		l.Validate()
		for l.nextVal <= l.samples {
			l.nextVal += l.valEverySmpls
		}
	}
}

// Validate records one validation point now.
func (l *learner) Validate() float64 {
	v := core.Validate(l.net, l.valSet, 4*l.scale.BatchSize)
	l.valCurve = append(l.valCurve, core.LossPoint{Batch: l.batches, Samples: l.samples, Value: v})
	return v
}

// FinalValidation returns the last recorded validation loss, validating on
// demand when none was recorded yet.
func (l *learner) FinalValidation() float64 {
	if len(l.valCurve) == 0 {
		return l.Validate()
	}
	return l.valCurve[len(l.valCurve)-1].Value
}

// MinValidation returns the lowest recorded validation loss (Table 1's
// "Min. MSE" column).
func (l *learner) MinValidation() float64 {
	if len(l.valCurve) == 0 {
		return l.Validate()
	}
	min := l.valCurve[0].Value
	for _, p := range l.valCurve[1:] {
		if p.Value < min {
			min = p.Value
		}
	}
	return min
}

// Curve accessors.
func (l *learner) TrainCurve() []core.LossPoint { return l.trainCurve }
func (l *learner) ValCurve() []core.LossPoint   { return l.valCurve }
func (l *learner) Batches() int                 { return l.batches }
func (l *learner) Samples() int                 { return l.samples }
func (l *learner) Occurrences() map[buffer.Key]int {
	return l.occ
}

// paperFig5Schedule is the §4.5 schedule: halve every 10,000 samples with a
// 2.5e-4 floor, making GPU counts comparable. The sample budget is scaled
// relative to the paper's 25,000-sample ensemble so smaller presets see the
// same number of decay steps.
func paperFig5Schedule(scale Scale) opt.Schedule {
	paperEnsemble := 25000.0
	ours := float64(scale.SimsSmall * scale.StepsPerSim)
	every := int(10000 * ours / paperEnsemble)
	if every < 1 {
		every = 1
	}
	return opt.Halving{Initial: 1e-3, EverySamples: every, Min: 2.5e-4}
}
