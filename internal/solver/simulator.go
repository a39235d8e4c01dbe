package solver

import "fmt"

// Simulator is the interface every ensemble-member solver implements: a
// stepwise time integrator over a flattened field. The heat-equation
// Simulation is the reference implementation; GrayScott demonstrates a
// qualitatively different PDE behind the same contract. The client library,
// launcher, and training pipeline drive simulations exclusively through
// this interface, which is what makes the framework problem-agnostic.
type Simulator interface {
	// StepOnce advances the field by one time step.
	StepOnce() error
	// StepIndex returns the number of completed time steps.
	StepIndex() int
	// Field returns the current flattened field. The slice may alias
	// internal state; callers must copy before the next step if they
	// retain it.
	Field() []float64
	// Restore resets the simulator to a checkpointed state: the field
	// after the given completed step.
	Restore(step int, field []float64) error
}

// Run drives sim through the remaining steps up to totalSteps, invoking
// emit after each one with the 1-based step index and the current field.
func Run(sim Simulator, totalSteps int, emit func(step int, field []float64)) error {
	for sim.StepIndex() < totalSteps {
		if err := sim.StepOnce(); err != nil {
			return fmt.Errorf("step %d: %w", sim.StepIndex()+1, err)
		}
		if emit != nil {
			emit(sim.StepIndex(), sim.Field())
		}
	}
	return nil
}
