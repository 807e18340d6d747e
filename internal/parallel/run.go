package parallel

import (
	"math"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/hotengine"
	"repro/internal/integrate"
	"repro/internal/msg"
)

// RunConfig is one distributed gravity run: the engine configuration
// plus the schedule.
type RunConfig struct {
	Config
	// Steps global steps of DT follow the initial force evaluation.
	Steps int
	DT    float64
	// Block switches to hierarchical block timesteps with criterion
	// scale Eta and softening length sqrt(Eps2); uniform
	// kick-drift-kick steps otherwise.
	Block bool
	Eta   float64

	Instruments hotengine.Instruments
	// OnStep, when non-nil, runs on every rank after each step with
	// that step's counters; it may call collectives (Energy).
	OnStep func(e *Engine, step int, ctr diag.Counters)
}

// Run is the rank body of every distributed gravity run -- the
// drivers, the simulation service, hot.RunParallel and the
// experiments: it takes rank's slab of global (shared read-only by all
// ranks), builds the engine, computes the initial forces and takes
// rc.Steps steps. The returned engine holds the rank's final bodies
// and counters (hotengine.Merge gathers them); its eval workers are
// stopped, so it takes collectives (Energy) but walks no more.
func Run(c *msg.Comm, global *core.System, rc RunConfig) *Engine {
	e := New(c, global.Slab(c.Rank(), c.Size()), rc.Config)
	if rc.Block {
		e.Stepper.Scheme = integrate.Block
		e.Stepper.Eta = rc.Eta
		e.Stepper.Eps = math.Sqrt(rc.Eps2)
	}
	e.Instrument(rc.Instruments)
	var ctr diag.Counters
	var after func(int)
	if rc.OnStep != nil {
		after = func(s int) { rc.OnStep(e, s, ctr) }
	}
	rc.Instruments.RunSteps(c.Rank(), rc.Steps, e.Telemetry,
		func() { e.ComputeForces() }, func() { ctr = e.Step(rc.DT) }, after)
	e.Close()
	return e
}
