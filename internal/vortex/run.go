package vortex

import (
	"repro/internal/core"
	"repro/internal/hotengine"
	"repro/internal/msg"
)

// RunConfig is one distributed vortex run: core radius Sigma, opening
// angle Theta, the walk/eval pipeline knobs and the schedule.
type RunConfig struct {
	Sigma, Theta  float64
	EvalWorkers   int
	PrefetchDepth int
	// Steps RK2 steps of DT; each evaluates for itself, so there is no
	// initial evaluation.
	Steps int
	DT    float64

	Instruments hotengine.Instruments
}

// Run is the rank body of every distributed vortex run (cmd/vortexsim
// and the simulation service): it takes rank's slab of global (shared
// read-only by all ranks), builds the engine and takes rc.Steps steps.
// The returned engine's eval workers are stopped.
func Run(c *msg.Comm, global *core.System, rc RunConfig) *ParallelEngine {
	e := NewParallel(c, global.Slab(c.Rank(), c.Size()), rc.Sigma, rc.Theta)
	if rc.EvalWorkers > 0 || rc.PrefetchDepth > 0 {
		e.EnableOverlap(rc.EvalWorkers, rc.PrefetchDepth)
	}
	e.Instrument(rc.Instruments)
	rc.Instruments.RunSteps(c.Rank(), rc.Steps, e.Telemetry, nil, func() { e.Step(rc.DT) }, nil)
	e.Close()
	return e
}
