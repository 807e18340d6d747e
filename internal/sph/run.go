package sph

import (
	"repro/internal/core"
	"repro/internal/hotengine"
	"repro/internal/msg"
)

// RunConfig is one distributed SPH run: the engine configuration plus
// the schedule.
type RunConfig struct {
	ParallelConfig
	// Steps leapfrog steps of DT follow the initial evaluation.
	Steps int
	DT    float64

	Instruments hotengine.Instruments
}

// Run is the rank body of every distributed SPH run (cmd/sphsim and
// the simulation service): it takes rank's slab of global (shared
// read-only by all ranks), builds the engine, evaluates densities and
// forces once and takes rc.Steps steps. The returned engine's eval
// workers are stopped.
func Run(c *msg.Comm, global *core.System, rc RunConfig) *ParallelEngine {
	e := NewParallel(c, global.Slab(c.Rank(), c.Size()), rc.ParallelConfig)
	e.Instrument(rc.Instruments)
	rc.Instruments.RunSteps(c.Rank(), rc.Steps, e.Telemetry,
		func() { e.Eval() }, func() { e.Step(rc.DT) }, nil)
	e.Close()
	return e
}
