// Package opt provides the Adam optimizer the paper trains with (§4.1,
// starting learning rate 1e-3) and the learning-rate schedules of §4.4–4.5
// (lr halved every N training samples down to a floor). Optimizer state can
// be serialized so server checkpoints resume training bit-exactly.
//
// Adam has one update. Its moments live in flat slabs mirroring
// nn.Network's parameter slab layout, and StepFlat hands them with the
// network's value and gradient slabs to tensor.Team.AdamStep — StepSum with
// several gradient slabs or a weight's batch factors to AdamSumStep or
// AdamFactorStep, the same update — per element
//
//	m′ = β1·m + (1−β1)·g
//	v′ = β2·v + ((1−β2)·g)·g
//	|m′| < 2⁻¹²⁶ → m′ = 0,  v′ < 2⁻¹²⁶ → v′ = 0
//	w  −= (α·m′)/(√v′ + ε)
//
// in float32, every operation rounded on its own, with α the bias-corrected
// step size. An AVX2 kernel and a portable loop implement it bit-identically
// (see package tensor), so checkpoints, ranks and machines agree.
//
// The third line is why a step costs the same at batch 5000 as at batch 50.
// A ReLU unit that stops firing hands its weights an exactly-zero gradient
// from then on; m decays by 0.9 a step into the subnormal range in about
// 800 steps and, stored as is, would stay there for ever: 0.9·k·2⁻¹⁴⁹ rounds
// back to k·2⁻¹⁴⁹ for k ≤ 4. Every later step then pays a microcode assist
// of about 100 ns per stuck element, which had grown Adam from 0.7 ms to
// 3.5 ms a step over a 1000-step run of the paper model. A moment below
// 2⁻¹²⁶ moves a weight by less than α·2⁻¹²⁶/ε ≈ 10⁻³³, which no weight
// above 10⁻²⁶ can register, so storing zero costs nothing; on a state with
// no subnormal moment the update is the historical scalar loop's
// bit-for-bit. Checkpoints written before the rule load unchanged and their
// stuck moments are flushed by the first step.
package opt

// Schedule maps training progress, measured in samples seen, to a learning
// rate. Measuring in samples rather than batches keeps multi-GPU runs
// comparable: with n GPUs each synchronized step consumes n×batch samples,
// so the paper scales the halving frequency accordingly (§4.5).
type Schedule interface {
	LR(samplesSeen int) float64
}

// Constant is a schedule that always returns the same learning rate.
type Constant float64

// LR implements Schedule.
func (c Constant) LR(int) float64 { return float64(c) }

// Halving is the paper's schedule: the learning rate starts at Initial and
// is halved every EverySamples training samples, never dropping below Min.
// With Min = 0 there is no floor.
type Halving struct {
	Initial      float64
	EverySamples int
	Min          float64
}

// LR implements Schedule.
func (h Halving) LR(samplesSeen int) float64 {
	lr := h.Initial
	if h.EverySamples > 0 {
		for n := samplesSeen / h.EverySamples; n > 0; n-- {
			lr /= 2
			if h.Min > 0 && lr <= h.Min {
				return h.Min
			}
		}
	}
	if h.Min > 0 && lr < h.Min {
		return h.Min
	}
	return lr
}
