package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/keys"
	"repro/internal/tree"
)

// serialSize is the fixed problem of plummer_serial.
type serialSize struct {
	n, steps, sinks int
	dt              float64
}

func serialSizes(tiny bool) serialSize {
	if tiny {
		return serialSize{n: 2000, steps: 1, sinks: 200, dt: 1e-3}
	}
	return serialSize{n: 20000, steps: 1, sinks: 6000, dt: 1e-3}
}

// serialDriftBudget bounds |dE/E0| of the serial fixed problem.
const serialDriftBudget = 1e-5

func toBodies(s *core.System) []hot.Body {
	out := make([]hot.Body, s.Len())
	for i := range out {
		out[s.ID[i]] = hot.Body{
			Pos:  [3]float64{s.Pos[i].X, s.Pos[i].Y, s.Pos[i].Z},
			Vel:  [3]float64{s.Vel[i].X, s.Vel[i].Y, s.Vel[i].Z},
			Mass: s.Mass[i],
		}
	}
	return out
}

// serialRep is one untraced solution through the public hot.Serial.
type serialRep struct {
	newSerial, tts time.Duration
	steps          []time.Duration // each Step
	interactions   uint64
	flops          uint64
	e0, e1         float64
	hash           string
}

func runHotSerial(bodies []hot.Body, cfg hot.Config, sz serialSize) (serialRep, error) {
	t0 := time.Now()
	sim, err := hot.NewSerial(bodies, cfg)
	if err != nil {
		return serialRep{}, err
	}
	r := serialRep{newSerial: time.Since(t0)}
	info := sim.Info()
	r.interactions, r.flops = info.Interactions, info.Flops
	r.e0 = info.Kinetic + info.Potential
	for s := 0; s < sz.steps; s++ {
		ts := time.Now()
		info = sim.Step(sz.dt)
		r.steps = append(r.steps, time.Since(ts))
		r.interactions += info.Interactions
		r.flops += info.Flops
	}
	r.tts = time.Since(t0)
	r.e1 = info.Kinetic + info.Potential
	out := sim.Bodies()
	pos := make([][3]float64, len(out))
	vel := make([][3]float64, len(out))
	for i, b := range out {
		pos[i], vel[i] = b.Pos, b.Vel
	}
	r.hash = stateHash(pos, vel)
	return r, nil
}

// loadSystem builds the system a serial engine runs on, indexed by
// body ID, as hot.NewSerial does before its first force evaluation.
func loadSystem(global *core.System) *core.System {
	sys := core.New(global.Len())
	sys.EnableDynamics()
	for i := 0; i < global.Len(); i++ {
		id := global.ID[i]
		sys.Pos[id], sys.Vel[id], sys.Mass[id] = global.Pos[i], global.Vel[i], global.Mass[i]
	}
	return sys
}

// pipeline is hot.Serial's force evaluation spelled out through the
// layers' public functions, so each call can carry a span: key
// assignment, key sort, tree build, then a walk and a kernel
// evaluation per leaf group. A nil tracer records nothing.
type pipeline struct {
	sys    *core.System
	mac    grav.MACParams
	eps2   float64
	bucket int
	tr     *tracer
	parent int64
	job    int
	w      tree.Walker
	ctr    diag.Counters
	stats  integrate.Stats
	// Per-layer busy time across the pipeline's evaluations.
	sort, build, walk, kernel time.Duration
}

func newPipeline(global *core.System, cfg hot.Config, tr *tracer) *pipeline {
	return &pipeline{
		sys:    loadSystem(global),
		mac:    grav.MACParams{Kind: grav.MACSalmonWarren, Theta: cfg.Theta, AccelTol: cfg.AccelTol, Quad: cfg.Quadrupole},
		eps2:   cfg.Eps * cfg.Eps,
		bucket: cfg.Bucket,
		tr:     tr,
	}
}

func (p *pipeline) forces(minRung int) error {
	ev := p.tr.begin("eval", p.parent, p.job, 0)
	defer p.tr.end(ev)
	sys := p.sys
	sp := p.tr.begin("keys.AssignKeys", ev.id, p.job, 0)
	d := keys.NewDomain(sys.Pos)
	sys.AssignKeys(d)
	p.tr.end(sp)
	sp = p.tr.begin("core.SortByKey", ev.id, p.job, 0)
	sys.SortByKey()
	p.sort += p.tr.end(sp)
	sp = p.tr.begin("tree.Build", ev.id, p.job, 0)
	t := tree.Build(sys, d, p.mac, p.bucket)
	p.build += p.tr.end(sp)
	p.ctr.CellsBuilt += uint64(t.NCells())
	p.w.Kernels = t.Kernels
	for _, gk := range t.Groups {
		g := t.Cell(gk)
		lo, hi := g.First, g.First+g.N
		if !tree.GroupActive(sys, int(lo), int(hi), minRung) {
			continue
		}
		sp = p.tr.begin("tree.Walker.Walk", ev.id, p.job, 0)
		missing := p.w.Walk(t, gk, sys.Pos[lo:hi], &p.ctr)
		p.walk += p.tr.end(sp)
		if missing != nil {
			return fmt.Errorf("serial walk reported %d missing cells", len(missing))
		}
		sp = p.tr.begin("tree.Walker.Evaluate", ev.id, p.job, 0)
		p.w.Evaluate(sys.Pos[lo:hi], sys.Mass[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi], p.eps2, p.mac.Quad, &p.ctr)
		p.kernel += p.tr.end(sp)
	}
	return nil
}

// hash is the stateHash of the pipeline's bodies.
func (p *pipeline) hash() string {
	n := p.sys.Len()
	pos, vel := make([][3]float64, n), make([][3]float64, n)
	for i := 0; i < n; i++ {
		id := p.sys.ID[i]
		v, w := p.sys.Pos[i], p.sys.Vel[i]
		pos[id], vel[id] = [3]float64{v.X, v.Y, v.Z}, [3]float64{w.X, w.Y, w.Z}
	}
	return stateHash(pos, vel)
}

// solvePipeline runs the fixed problem through the pipeline, stepping
// it with the same integrate.Stepper hot.Serial uses, and returns the
// pipeline and its time to solution. With a nil tracer it runs the
// same calls and clock reads but records no spans.
func solvePipeline(global *core.System, cfg hot.Config, sz serialSize, tr *tracer, rep int) (*pipeline, time.Duration, error) {
	p := newPipeline(global, cfg, tr)
	var ferr error
	st := integrate.Stepper{B: &integrate.FuncBodies{System: p.sys, Force: func(_ *core.System, minRung int) {
		if err := p.forces(minRung); err != nil && ferr == nil {
			ferr = err
		}
	}}}
	root := tr.begin("solution", 0, rep, 0)
	p.parent = root.id
	if err := p.forces(0); err != nil {
		return nil, 0, err
	}
	for s := 1; s <= sz.steps; s++ {
		sp := tr.begin("integrate.Stepper.Step", root.id, s, 0)
		p.parent, p.job = sp.id, s
		st.Step(sz.dt)
		tr.end(sp)
	}
	tts := tr.end(root)
	p.stats = st.Stats
	return p, tts, ferr
}

// matchGates checks that a pipeline did hot.Serial's work exactly: the
// same interaction count and, bit for bit, the same final state. The
// direct-summation check runs on a pipeline's forces, so it holds for
// hot.Serial's only through these gates.
func matchGates(name string, p *pipeline, r serialRep) []gate {
	h := p.hash()
	return []gate{
		check(name+"_interactions", p.ctr.Interactions() == r.interactions,
			"pipeline %d, hot.Serial %d", p.ctr.Interactions(), r.interactions),
		check(name+"_state_hash", h == r.hash, "pipeline %s, hot.Serial %s", h, r.hash),
	}
}

func runPlummerSerial(o options) (*outcome, error) {
	sz := serialSizes(o.tiny)
	global := ic.Plummer(sz.n, 1.0, o.seed)
	bodies := toBodies(global)
	cfg := hot.Defaults()
	oc := newOutcome()
	oc.info["n"], oc.info["steps"], oc.info["dt"] = sz.n, sz.steps, sz.dt

	var reps []serialRep
	var plain, traced []*pipeline
	var plainTTS, tracedTTS, setups []float64
	var tr *tracer
	if o.trace {
		tr = newTracer()
		oc.spans = tr
	}
	loadTime := func() time.Duration {
		return quietSetup(func() time.Duration {
			t0 := time.Now()
			loadSystem(global)
			return time.Since(t0)
		})
	}
	for pace := o.repeater(); pace.more(); {
		r, err := runHotSerial(bodies, cfg, sz)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		runtime.GC() // one solution's memory at a time, as in runParallel
		setups = setupSamples(setups, loadTime)
		if o.trace {
			// The untraced pipeline, run alongside, is the baseline
			// of the tracing overhead: only the spans differ.
			p, tts, err := solvePipeline(global, cfg, sz, nil, len(plain))
			if err != nil {
				return nil, err
			}
			plain = append(plain, p)
			plainTTS = append(plainTTS, tts.Seconds())
			p, tts, err = solvePipeline(global, cfg, sz, tr, len(traced))
			if err != nil {
				return nil, err
			}
			traced = append(traced, p)
			tracedTTS = append(tracedTTS, tts.Seconds())
			runtime.GC()
		}
	}
	peak := peakRSSMB()
	if !o.trace {
		// Outside the timed region: the pipeline whose forces the
		// direct-summation check reads.
		p, _, err := solvePipeline(global, cfg, sz, nil, 0)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
	}
	oc.attempted = len(reps) + len(plain) + len(traced)

	// Accuracy of the final state's forces, outside the timed region.
	ref := plain[0]
	errs, err := forceErrors([]*core.System{ref.sys}, sz.n, sampleSinks(sz.n, sz.sinks, o.seed), ref.eps2)
	if err != nil {
		return nil, err
	}
	r0 := reps[0]
	drift := math.Abs((r0.e1 - r0.e0) / r0.e0)
	oc.gates = append(oc.gates, forceGates(errs)...)
	oc.gates = append(oc.gates, driftGate(drift, serialDriftBudget))
	inters, hashes := make([]uint64, len(reps)), make([]string, len(reps))
	var tts, newSerial, steps []float64
	for i, r := range reps {
		inters[i], hashes[i] = r.interactions, r.hash
		tts = append(tts, r.tts.Seconds())
		newSerial = append(newSerial, r.newSerial.Seconds())
		steps = append(steps, seconds(r.steps)...)
	}
	oc.gates = append(oc.gates, sameGate("repeat_interactions", inters), sameGate("repeat_state_hash", hashes))
	for i, p := range plain {
		oc.gates = append(oc.gates, matchGates(fmt.Sprintf("pipeline_%d", i), p, r0)...)
	}
	for i, p := range traced {
		oc.gates = append(oc.gates, matchGates(fmt.Sprintf("traced_%d", i), p, r0)...)
	}
	oc.failed = failedUnits(oc)
	oc.ids["interactions"], oc.ids["state_hash"] = r0.interactions, r0.hash

	oc.info["tts_s"], oc.info["new_serial_s"] = tts, newSerial
	medTTS := median(tts)
	oc.e2e("time_to_solution_s", medTTS, len(tts), "hot.NewSerial (initial forces) + Steps, median over repetitions")
	oc.e2e("gflops", float64(r0.flops)/medTTS/1e9, len(tts), fmt.Sprintf("flops %d / time_to_solution_s", r0.flops))
	oc.e2e("setup_s", median(setups), len(setups),
		fmt.Sprintf("core.New + EnableDynamics + loading the bodies; median of samples, each the fastest of %d", setupBatch))
	oc.e2e("peak_rss_mb", peak, 1, "getrusage maxrss")
	oc.e2e("job_p50_ms", median(steps)*1e3, len(steps), "hot.Serial.Step, median")

	if o.trace {
		oc.zeroLayers()
		layerMedians(oc, serialLayers(traced))
		oc.layer("grav.force_err_p99", quantile(errs, 0.99), len(errs), "|a_tree-a_direct|/|a_direct|, final state")
		oc.layer("integrate.energy_drift", drift, 1, "|E_end-E_0|/|E_0| of hot.Serial")
		oc.info["traced_tts_s"], oc.info["untraced_pipeline_tts_s"] = tracedTTS, plainTTS
		oc.layer("trace.overhead_s", median(tracedTTS)-median(plainTTS), len(tracedTTS),
			"traced minus untraced pipeline time_to_solution_s, medians")
	}
	return oc, nil
}

// layerValue is one per-layer figure of one traced repetition.
type layerValue struct {
	v    float64
	base string
}

// serialLayers derives the per-layer figures of each traced
// repetition from its span totals and counters.
func serialLayers(traced []*pipeline) []map[string]layerValue {
	var out []map[string]layerValue
	for _, p := range traced {
		c := p.ctr
		inter := float64(c.Interactions())
		flops := float64(c.Flops())
		out = append(out, map[string]layerValue{
			"core.sort_s":             {p.sort.Seconds(), "core.SortByKey spans"},
			"tree.build_s":            {p.build.Seconds(), "tree.Build spans"},
			"tree.cells":              {float64(c.CellsBuilt), "cells built, all evaluations"},
			"tree.walk_s":             {p.walk.Seconds(), "tree.Walker.Walk spans"},
			"tree.traversals":         {float64(c.Traversals), "diag.Counters.Traversals"},
			"tree.ns_per_interaction": {ratio((p.walk+p.kernel).Seconds()*1e9, inter), "(tree.walk_s + grav.kernel_s) / grav.interactions"},
			"grav.kernel_s":           {p.kernel.Seconds(), "tree.Walker.Evaluate spans"},
			"grav.interactions":       {inter, "diag.Counters PP + PC"},
			"grav.kernel_gflops":      {ratio(flops, p.kernel.Seconds()) / 1e9, "diag.Counters.Flops / grav.kernel_s"},
			"grav.bytes_computed":     {float64(c.KernelBytes()), "diag.Counters.KernelBytes (computed, not measured)"},
			"integrate.substeps":      {float64(p.stats.SubSteps), "integrate.Stats.SubSteps"},
			"integrate.partial_evals": {float64(p.stats.PartialEvals), "integrate.Stats.PartialEvals"},
			"integrate.active_frac":   {ratio(float64(p.stats.ActiveSinks), float64(p.stats.TotalSinks)), "integrate.Stats ActiveSinks / TotalSinks"},
		})
	}
	return out
}

// layerMedians reports, for each per-layer figure, the median over
// the traced repetitions.
func layerMedians(oc *outcome, reps []map[string]layerValue) {
	if len(reps) == 0 {
		return
	}
	for name, lv := range reps[0] {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r[name].v
		}
		oc.layer(name, median(vals), len(vals), lv.base)
	}
}

// failedUnits counts every attempted solution as failed when any
// check fails: the repetitions of one fixed problem share their
// inputs, so a wrong result is wrong in all of them.
func failedUnits(oc *outcome) int {
	if oc.correct() {
		return 0
	}
	return oc.attempted
}
