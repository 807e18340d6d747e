// Job execution: one accepted Spec becomes one msg.World running its
// physics' one rank body -- parallel.Run, sph.Run or vortex.Run, the
// functions the standalone drivers call -- on the drivers' initial
// conditions and engine configuration. A job's final forces are
// therefore bit-identical to what treebench/sphsim/vortexsim compute
// for the same (spec, np, seed) by construction: there is one code
// path. TestGravityJobBitwiseStandalone and
// TestSPHAndVortexJobsBitwiseStandalone still pin it against
// references written out independently of this file.

package simserve

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/sph"
	"repro/internal/vortex"
)

// vortexCore is the fixed points-across-core of vortex-ring jobs (the
// driver's -ncore default); vortexSigma and vortexTheta are the
// driver's -sigma and -theta defaults.
const (
	vortexCore  = 4
	vortexSigma = 0.12
	vortexTheta = 0.5
)

// runJob moves a dequeued job through running to a terminal state.
// Every failure mode of the world -- rank panic, injected crash,
// watchdog stall, cancellation -- lands here as a *msg.WorldError;
// nothing escapes to the worker goroutine.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	m.reg.Gauge(MetricRunning).Set(float64(m.running.Add(1)))
	m.lg.Info("job started", "job", j.ID, "physics", j.Spec.Physics,
		"n", j.Spec.N, "np", j.Spec.NP, "steps", j.Spec.Steps)

	res, err := m.execute(j)

	j.mu.Lock()
	j.world = nil
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateCompleted
		j.result = res
	case j.cancelled:
		j.state = StateCancelled
		j.err = errCancelled.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	state, lat, runNs := j.state, j.finished.Sub(j.submitted), j.finished.Sub(j.started)
	j.mu.Unlock()

	j.tel.Close()
	m.reg.Gauge(MetricRunning).Set(float64(m.running.Add(-1)))
	m.reg.Histogram(MetricLatencyNs).Observe(uint64(lat.Nanoseconds()))
	m.reg.Histogram(MetricRunNs).Observe(uint64(runNs.Nanoseconds()))
	switch state {
	case StateCompleted:
		m.reg.Counter(MetricCompleted).Add(1)
		m.lg.Info("job completed", "job", j.ID, "wall_ms", runNs.Milliseconds(), "hash", res.ForcesHash)
	case StateCancelled:
		m.reg.Counter(MetricCancelled).Add(1)
		m.lg.Info("job cancelled", "job", j.ID)
	default:
		m.reg.Counter(MetricFailed).Add(1)
		m.lg.Error("job failed (contained)", "job", j.ID, "err", err)
	}
}

// execute builds the job's world and runs its physics through the
// physics' one rank body (parallel.Run, sph.Run, vortex.Run). The
// returned error is the structured world abort (or cancellation); a
// nil error means every rank completed and res holds the digest.
func (m *Manager) execute(j *Job) (*Result, error) {
	sp := j.Spec
	w := msg.NewWorld(sp.NP)
	if j.inj != nil {
		w.SetInjector(j.inj)
	}
	if m.cfg.Watchdog > 0 {
		w.StartWatchdog(msg.WatchdogConfig{Quiet: m.cfg.Watchdog, Log: m.lg.With("job", j.ID)})
	}
	if !j.attachWorld(w) {
		return nil, errCancelled
	}

	in := hotengine.Instruments{Telemetry: j.tel}
	var final *core.System
	var total diag.Counters
	var werr *msg.WorldError
	var interactions uint64
	t0 := time.Now()
	switch sp.Physics {
	case PhysicsGravity:
		var global *core.System
		switch sp.IC {
		case ICSphere:
			global = ic.UniformSphere(sp.N, 1.0, sp.Seed)
		default:
			global = ic.Plummer(sp.N, 1.0, sp.Seed)
		}
		rc := parallel.RunConfig{
			Config: parallel.Config{
				MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: sp.Tol, Quad: true},
				Bucket: 16, Eps2: 1e-6,
				EvalWorkers: sp.EvalWorkers, PrefetchDepth: sp.Prefetch,
			},
			Steps: sp.Steps, DT: sp.DT, Block: sp.DTMode == "block", Eta: sp.Eta,
			Instruments: in,
		}
		final, total, werr = run(w, func(c *msg.Comm) *parallel.Engine { return parallel.Run(c, global, rc) })
		interactions = total.Interactions()
	case PhysicsSPH: // headline count includes the SPH pair kernel
		global := ic.GasSphere(sp.N, sp.Seed)
		rc := sph.RunConfig{
			ParallelConfig: sph.ParallelConfig{
				Params:  sph.Params{EOS: sph.Isothermal, CS: 0.8, AlphaVisc: 1, BetaVisc: 2},
				Gravity: true, Eps2: 1e-4,
				EvalWorkers: sp.EvalWorkers, PrefetchDepth: sp.Prefetch,
			},
			Steps: sp.Steps, DT: sp.DT, Instruments: in,
		}
		final, total, werr = run(w, func(c *msg.Comm) *sph.ParallelEngine { return sph.Run(c, global, rc) })
		interactions = total.Interactions() + total.SPHPairs
	case PhysicsVortex: // vortex work is all in the VortexPP kernel
		global := ic.RingPair(vortexSigma, sp.N, vortexCore)
		rc := vortex.RunConfig{
			Sigma: vortexSigma, Theta: vortexTheta,
			EvalWorkers: sp.EvalWorkers, PrefetchDepth: sp.Prefetch,
			Steps: sp.Steps, DT: sp.DT, Instruments: in,
		}
		final, total, werr = run(w, func(c *msg.Comm) *vortex.ParallelEngine { return vortex.Run(c, global, rc) })
		interactions = total.VortexPP
	}
	if werr != nil {
		return nil, werr
	}
	return &Result{
		Bodies:       final.Len(),
		Interactions: interactions,
		Flops:        total.Flops(),
		ForcesHash:   ForcesHash([]*core.System{final}, sp.Physics == PhysicsVortex),
		WallMs:       float64(time.Since(t0).Nanoseconds()) / 1e6,
	}, nil
}

// run executes a job's rank body on every rank of w and merges the
// ranks' final systems (rank-major) and counters.
func run[E hotengine.Finished](w *msg.World, body func(*msg.Comm) E) (*core.System, diag.Counters, *msg.WorldError) {
	engines, werr := msg.Collect(w, body)
	if werr != nil {
		return nil, diag.Counters{}, werr
	}
	final, total := hotengine.Merge(engines)
	return final, total, nil
}

// ForcesHash digests the final per-body state in rank-major, local
// body order: ID plus the acceleration columns (positions for the
// vortex method, whose Step folds the induced velocity straight into
// Pos). Bit-for-bit deterministic for a given (spec, np, seed), so
// equality with a standalone-driver run IS bitwise force equality.
func ForcesHash(systems []*core.System, positions bool) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, s := range systems {
		for i := 0; i < s.Len(); i++ {
			word(uint64(s.ID[i]))
			v := s.Acc[i]
			if positions {
				v = s.Pos[i]
			}
			word(math.Float64bits(v.X))
			word(math.Float64bits(v.Y))
			word(math.Float64bits(v.Z))
		}
	}
	return string(appendHex(nil, h.Sum64()))
}

// appendHex is %016x without fmt on the hash path.
func appendHex(dst []byte, u uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[(u>>uint(shift))&0xf])
	}
	return dst
}
