package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/simserve"
)

// The treebench engine configuration: Salmon-Warren MAC at AccelTol
// 1e-4 with quadrupoles, leaves of 16, softening 1e-3.
const (
	parAccelTol = 1e-4
	parBucket   = 16
	parEps2     = 1e-6
)

// parSpec is the fixed problem of a distributed workload.
type parSpec struct {
	global      *core.System
	np, steps   int
	dt          float64
	block       bool
	eta         float64
	maxRung     int
	sinks       int
	driftBudget float64
}

func np4Spec(seed int64, tiny bool) parSpec {
	n, steps, sinks := 20000, 1, 6000
	if tiny {
		n, steps, sinks = 2000, 1, 200
	}
	return parSpec{global: ic.Plummer(n, 1.0, seed), np: 4, steps: steps, dt: 1e-3, sinks: sinks, driftBudget: 1e-5}
}

// collapseSpec is a Plummer core (60% of the bodies) inside a cold
// uniform sphere of twice its scale (40%), stepped with block
// timesteps. The finest rung is capped at 3 (8 sub-steps per step):
// uncapped, the deepest rung follows the closest pair of the seed's
// bodies, and the sub-step count, and with it the work, doubled from
// one seed to the next.
func collapseSpec(seed int64, tiny bool) parSpec {
	n, steps, sinks := 12000, 1, 6000
	if tiny {
		n, steps, sinks = 2000, 1, 200
	}
	nc := n * 6 / 10
	core1 := ic.Plummer(nc, 1.0, seed)
	shell := ic.UniformSphere(n-nc, 2.0, seed+1)
	g := core.New(n)
	g.EnableDynamics()
	for i, src := range []*core.System{core1, shell} {
		off := i * nc
		for j := 0; j < src.Len(); j++ {
			g.Pos[off+j], g.Vel[off+j], g.Mass[off+j] = src.Pos[j], src.Vel[j], src.Mass[j]
		}
	}
	return parSpec{global: g, np: 4, steps: steps, dt: 2e-3, block: true, eta: 0.02, sinks: sinks, driftBudget: 1e-5, maxRung: 3}
}

// rankLayer accumulates what one rank's engine exposes after each
// force evaluation (Rounds, RemoteCells and DecomposeStats describe
// only the latest evaluation).
type rankLayer struct {
	rounds, remoteCells int
	bisection, reused   int
	displacedSum        float64
	displacedN          int
}

func (l *rankLayer) afterEval(e *parallel.Engine, minRung int) {
	l.rounds += e.Rounds
	l.remoteCells += e.RemoteCells
	ds := e.DecomposeStats()
	l.bisection += ds.Rounds
	if ds.SplitsReused {
		l.reused++
	}
	if minRung > 0 {
		l.displacedSum += ds.DisplacedFrac
		l.displacedN++
	}
}

// tracedBodies wraps an engine's integrate.Bodies so every force
// evaluation the stepper asks for gets a span and its per-evaluation
// statistics are collected.
type tracedBodies struct {
	integrate.Bodies
	e      *parallel.Engine
	l      *rankLayer
	tr     *tracer
	parent int64
	job    int
	rank   int
}

func (b *tracedBodies) Forces(minRung int) {
	sp := b.tr.begin("parallel.Engine.Forces", b.parent, b.job, b.rank)
	b.Bodies.Forces(minRung)
	b.tr.end(sp)
	b.l.afterEval(b.e, minRung)
}

// parRun is one solution of a parSpec.
type parRun struct {
	setup, tts time.Duration
	steps      []time.Duration // rank 0's Step calls
	ctr        diag.Counters
	hash       string
	e0, e1     float64
	engines    []*parallel.Engine
	world      *msg.World
	layers     []*rankLayer
}

func scatter(global, local *core.System, rank, size int) {
	n := global.Len()
	for i := rank * n / size; i < (rank+1)*n/size; i++ {
		local.AppendFrom(global, i)
	}
}

// newEngine builds one rank's engine the way cmd/treebench does.
func newEngine(c *msg.Comm, sp parSpec) *parallel.Engine {
	local := core.New(0)
	local.EnableDynamics()
	scatter(sp.global, local, c.Rank(), c.Size())
	e := parallel.New(c, local, parallel.Config{
		MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: parAccelTol, Quad: true},
		Bucket: parBucket, Eps2: parEps2,
	})
	if sp.block {
		e.Stepper.Scheme = integrate.Block
		e.Stepper.Eta = sp.eta
		e.Stepper.Eps = math.Sqrt(parEps2)
		e.Stepper.MaxRung = sp.maxRung
	}
	return e
}

// setupOnly times world and engine construction alone.
func setupOnly(sp parSpec) time.Duration {
	t0 := time.Now()
	w := msg.NewWorld(sp.np)
	built := make([]time.Time, sp.np)
	w.Run(func(c *msg.Comm) {
		e := newEngine(c, sp)
		built[c.Rank()] = time.Now()
		e.Close()
	})
	return latest(built).Sub(t0)
}

func latest(ts []time.Time) time.Time {
	var m time.Time
	for _, t := range ts {
		if t.After(m) {
			m = t
		}
	}
	return m
}

// solve runs the fixed problem once. Setup ends when the last rank
// has built its engine; time to solution runs from there until the
// last rank has finished its final step.
func solve(sp parSpec, tr *tracer, rep int) (*parRun, error) {
	np := sp.np
	t0 := time.Now()
	root := tr.begin("msg.World.RunErr", 0, rep, -1)
	w := msg.NewWorld(np)
	r := &parRun{world: w, engines: make([]*parallel.Engine, np)}
	built, done := make([]time.Time, np), make([]time.Time, np)
	e0, e1 := make([]float64, np), make([]float64, np)
	if tr != nil {
		r.layers = make([]*rankLayer, np)
	}
	werr := w.RunErr(func(c *msg.Comm) {
		rank := c.Rank()
		sp0 := tr.begin("parallel.New", root.id, 0, rank)
		e := newEngine(c, sp)
		tr.end(sp0)
		var tb *tracedBodies
		if tr != nil {
			tb = &tracedBodies{Bodies: e.Stepper.B, e: e, l: &rankLayer{}, tr: tr, rank: rank}
			e.Stepper.B = tb
			r.layers[rank] = tb.l
		}
		built[rank] = time.Now()
		spc := tr.begin("parallel.Engine.ComputeForces", root.id, 0, rank)
		e.ComputeForces()
		tr.end(spc)
		if tb != nil {
			tb.l.afterEval(e, 0)
		}
		e0[rank] = energy(e.Sys)
		for s := 1; s <= sp.steps; s++ {
			ts := time.Now()
			sps := tr.begin("parallel.Engine.Step", root.id, s, rank)
			if tb != nil {
				tb.parent, tb.job = sps.id, s
			}
			e.Step(sp.dt)
			tr.end(sps)
			if rank == 0 {
				r.steps = append(r.steps, time.Since(ts))
			}
		}
		done[rank] = time.Now()
		e1[rank] = energy(e.Sys)
		r.engines[rank] = e
	})
	tr.end(root)
	if werr != nil {
		return nil, fmt.Errorf("world aborted: %w", werr)
	}
	r.setup = latest(built).Sub(t0)
	r.tts = latest(done).Sub(latest(built))
	for _, e := range r.engines {
		r.ctr.Add(e.Counters)
	}
	r.e0, r.e1 = sum(e0), sum(e1)
	r.hash = simserve.ForcesHash(r.systems(), false)
	return r, nil
}

func (r *parRun) systems() []*core.System {
	out := make([]*core.System, len(r.engines))
	for i, e := range r.engines {
		out[i] = e.Sys
	}
	return out
}

// release drops the engines and the world once the run has read them.
func (r *parRun) release() {
	r.engines, r.world, r.layers = nil, nil, nil
}

func runPlummerNP4(o options) (*outcome, error) {
	return runParallel(o, np4Spec(o.seed, o.tiny))
}

func runCollapseBlock(o options) (*outcome, error) {
	return runParallel(o, collapseSpec(o.seed, o.tiny))
}

func runParallel(o options, sp parSpec) (*outcome, error) {
	oc := newOutcome()
	oc.info["n"], oc.info["np"], oc.info["steps"], oc.info["dt"] = sp.global.Len(), sp.np, sp.steps, sp.dt
	if sp.block {
		oc.info["eta"] = sp.eta
	}
	var setups, solveSetups []float64
	var tr *tracer
	if o.trace {
		tr = newTracer()
		oc.spans = tr
	}
	// Each solution's engines are dropped, and collected, as soon as
	// what the run reports has been read from them, so the peak
	// resident set is that of one solution, not of the garbage the
	// repetitions leave behind.
	var reps, traced []*parRun
	var errs []float64
	var lv []map[string]layerValue
	n := sp.global.Len()
	for pace := o.repeater(); pace.more(); {
		r, err := solve(sp, nil, len(reps))
		if err != nil {
			return nil, err
		}
		if len(reps) == 0 {
			// Accuracy of the first solution's final state, outside
			// the timed region.
			if errs, err = forceErrors(r.systems(), n, sampleSinks(n, sp.sinks, o.seed), parEps2); err != nil {
				return nil, err
			}
		}
		r.release()
		runtime.GC() // one solution's memory at a time: see release
		reps = append(reps, r)
		solveSetups = append(solveSetups, r.setup.Seconds())
		setups = setupSamples(setups, func() time.Duration {
			return quietSetup(func() time.Duration { return setupOnly(sp) })
		})
		if o.trace {
			t, err := solve(sp, tr, len(traced))
			if err != nil {
				return nil, err
			}
			lv = append(lv, parallelLayers(t))
			t.release()
			runtime.GC()
			traced = append(traced, t)
		}
	}
	oc.attempted = len(reps) + len(traced)
	peak := peakRSSMB()

	r0 := reps[0]
	drift := math.Abs((r0.e1 - r0.e0) / r0.e0)
	oc.gates = append(oc.gates, forceGates(errs)...)
	oc.gates = append(oc.gates, driftGate(drift, sp.driftBudget))
	all := append(append([]*parRun(nil), reps...), traced...)
	inters, hashes := make([]uint64, len(all)), make([]string, len(all))
	for i, r := range all {
		inters[i], hashes[i] = r.ctr.Interactions(), r.hash
	}
	oc.gates = append(oc.gates, sameGate("repeat_interactions", inters), sameGate("repeat_forces_hash", hashes))
	oc.failed = failedUnits(oc)
	oc.ids["interactions"], oc.ids["forces_hash"] = r0.ctr.Interactions(), r0.hash

	var tts, steps []float64
	for _, r := range reps {
		tts = append(tts, r.tts.Seconds())
		steps = append(steps, seconds(r.steps)...)
	}
	oc.info["tts_s"], oc.info["solve_setup_s"] = tts, solveSetups
	medTTS := median(tts)
	flops := r0.ctr.Flops()
	oc.e2e("time_to_solution_s", medTTS, len(tts), "end of engine construction to final state, median over repetitions")
	oc.e2e("gflops", float64(flops)/medTTS/1e9, len(tts), fmt.Sprintf("flops %d / time_to_solution_s", flops))
	oc.e2e("setup_s", median(setups), len(setups),
		fmt.Sprintf("msg.NewWorld + parallel.New on every rank; median of samples, each the fastest of %d", setupBatch))
	oc.e2e("peak_rss_mb", peak, 1, "getrusage maxrss")
	oc.e2e("job_p50_ms", median(steps)*1e3, len(steps), "rank 0's parallel.Engine.Step, median")

	if o.trace {
		oc.zeroLayers()
		var ttts []float64
		for _, t := range traced {
			ttts = append(ttts, t.tts.Seconds())
		}
		layerMedians(oc, lv)
		oc.layer("grav.force_err_p99", quantile(errs, 0.99), len(errs), "|a_tree-a_direct|/|a_direct|, final state")
		oc.layer("integrate.energy_drift", drift, 1, "|E_end-E_0|/|E_0|")
		oc.info["traced_tts_s"] = ttts
		oc.layer("trace.overhead_s", median(ttts)-medTTS, len(ttts), "traced minus untraced time_to_solution_s, medians")
	}
	return oc, nil
}

// parallelLayers derives the per-layer figures of one traced solution
// from the engines' counters, phase timers and the world's traffic.
func parallelLayers(r *parRun) map[string]layerValue {
	var sortS, buildS, walkS, treebuildS, branchesS, decompS float64
	var work []float64
	var remote, walkMsgs uint64
	var active, sinks uint64
	for i, e := range r.engines {
		sortS += e.Sub.Get("treebuild/sort").Seconds()
		buildS += e.Sub.Get("treebuild/build").Seconds() + e.Sub.Get("treebuild/insert").Seconds()
		walkS += e.Timer.Get("walk").Seconds()
		treebuildS += e.Timer.Get("treebuild").Seconds()
		branchesS += e.Timer.Get("branches").Seconds()
		decompS += e.Timer.Get("decompose").Seconds()
		work = append(work, float64(e.Counters.Interactions()))
		remote += uint64(r.layers[i].remoteCells)
		if pt := r.world.RankTraffic(i).Phases["walk"]; pt != nil {
			walkMsgs += pt.Msgs
		}
		active += e.Stepper.Stats.ActiveSinks
		sinks += e.Stepper.Stats.TotalSinks
	}
	c := r.ctr
	l0 := r.layers[0]
	st := r.engines[0].Stepper.Stats
	inter := float64(c.Interactions())
	tot := r.world.TotalTraffic()
	inside := "runs inside hotengine.walk_s here; not separable from outside the engine"
	return map[string]layerValue{
		"core.sort_s":                       {sortS, "sum over ranks of Engine.Sub treebuild/sort"},
		"tree.build_s":                      {buildS, "sum over ranks of Engine.Sub treebuild/build + treebuild/insert"},
		"tree.cells":                        {float64(c.CellsBuilt), "diag.Counters.CellsBuilt, all ranks"},
		"tree.walk_s":                       {0, inside},
		"tree.traversals":                   {float64(c.Traversals), "diag.Counters.Traversals, all ranks"},
		"grav.kernel_s":                     {0, inside},
		"grav.interactions":                 {inter, "diag.Counters PP + PC, all ranks"},
		"grav.kernel_gflops":                {0, inside},
		"grav.bytes_computed":               {float64(c.KernelBytes()), "diag.Counters.KernelBytes (computed, not measured)"},
		"hotengine.walk_s":                  {walkS, "sum over ranks of Engine.Timer walk"},
		"hotengine.walk_ns_per_interaction": {ratio(walkS*1e9, inter), "hotengine.walk_s / grav.interactions"},
		"hotengine.treebuild_s":             {treebuildS, "sum over ranks of Engine.Timer treebuild"},
		"hotengine.branches_s":              {branchesS, "sum over ranks of Engine.Timer branches"},
		"hotengine.rounds":                  {float64(l0.rounds), "request rounds summed over evaluations (rank 0)"},
		"hotengine.remote_cells":            {float64(remote), "cells imported, all ranks and evaluations"},
		"hotengine.deferred":                {float64(c.Deferred), "diag.Counters.Deferred, all ranks"},
		"domain.decompose_s":                {decompS, "sum over ranks of Engine.Timer decompose"},
		"domain.bisection_rounds":           {float64(l0.bisection), "DecomposeStats.Rounds summed over evaluations (rank 0)"},
		"domain.splits_reused":              {float64(l0.reused), "evaluations whose decomposition kept the previous splits"},
		"domain.displaced_frac":             {ratio(l0.displacedSum, float64(l0.displacedN)), "mean DecomposeStats.DisplacedFrac over partial evaluations"},
		"abm.requests":                      {float64(c.Requests), "diag.Counters.Requests, all ranks"},
		"abm.requests_per_msg":              {ratio(float64(c.Requests), float64(walkMsgs)), "abm.requests / messages sent in the walk phase"},
		"msg.msgs":                          {float64(tot.Msgs), "msg.World.TotalTraffic"},
		"msg.bytes":                         {float64(tot.Bytes), "msg.World.TotalTraffic"},
		"msg.max_rank_bytes":                {float64(r.world.MaxRankTraffic().Bytes), "msg.World.MaxRankTraffic"},
		"msg.rank_imbalance":                {ratio(maxOf(work), sum(work)/float64(len(work))), "max / mean of per-rank interactions (phase wall times include the collectives' waits, so they read equal)"},
		"integrate.substeps":                {float64(st.SubSteps), "integrate.Stats.SubSteps"},
		"integrate.partial_evals":           {float64(st.PartialEvals), "integrate.Stats.PartialEvals"},
		"integrate.active_frac":             {ratio(float64(active), float64(sinks)), "integrate.Stats ActiveSinks / TotalSinks, all ranks"},
	}
}
