package hotengine

import (
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Instruments are a distributed run's optional observers, shared by
// every rank: per-rank timelines, the deferred-group stall histogram
// and the live telemetry sampler. A nil field costs nothing, so a run
// with every instrument off pays what an uninstrumented loop pays.
type Instruments struct {
	Trace     *trace.Run
	Stalls    *metrics.Histogram
	Telemetry *telemetry.Sampler
}

// Instrument attaches in's rank-level observers to e: the rank's
// tracer and the stall histogram. Call before the first evaluation.
func (e *Engine[X, B]) Instrument(in Instruments) {
	if in.Trace != nil {
		e.EnableTrace(in.Trace.Rank(e.C.Rank()))
	}
	e.Stalls = in.Stalls
}

// RunSteps is the rank schedule every physics shares: the initial
// evaluation init (nil when each step evaluates for itself), then
// steps calls of step, each followed by after(s) when after is
// non-nil. init and every step are timed into one telemetry sample
// built by sample; the initial sample gives the energy-drift monitor
// its baseline. after runs outside the timing and may call
// collectives.
func (in Instruments) RunSteps(rank, steps int, sample func(stepNs int64) telemetry.RankSample,
	init, step func(), after func(s int)) {
	timed := func(f func()) {
		t0 := time.Now()
		f()
		if in.Telemetry != nil {
			in.Telemetry.Contribute(rank, sample(time.Since(t0).Nanoseconds()))
		}
	}
	if init != nil {
		timed(init)
	}
	for s := 0; s < steps; s++ {
		timed(step)
		if after != nil {
			after(s)
		}
	}
}

// Bodies returns the rank's current local system.
func (e *Engine[X, B]) Bodies() *core.System { return e.Sys }

// Totals returns the rank's counters accumulated over the run.
func (e *Engine[X, B]) Totals() diag.Counters { return e.Counters }

// Finished is what a run summary needs of one rank's engine; every
// engine built on this pipeline satisfies it.
type Finished interface {
	Bodies() *core.System
	Totals() diag.Counters
}

// Merge folds a run's per-rank engines into its result: the local
// systems gathered in rank order (core.Gather, the inverse of the
// core.System.Slab scatter) and the counters summed over ranks.
func Merge[E Finished](engines []E) (*core.System, diag.Counters) {
	parts := make([]*core.System, len(engines))
	var total diag.Counters
	for r, e := range engines {
		parts[r] = e.Bodies()
		total.Add(e.Totals())
	}
	return core.Gather(parts), total
}

// Reports collects each rank's RunReport input, in rank order.
func Reports[E interface{ Report() metrics.RankInput }](engines []E) []metrics.RankInput {
	out := make([]metrics.RankInput, len(engines))
	for r, e := range engines {
		out[r] = e.Report()
	}
	return out
}
