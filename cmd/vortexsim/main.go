// Command vortexsim runs the fusion of two vortex rings with the
// vortex particle method -- the paper's Hyglac showcase -- including
// the periodic remeshing that grows the particle count, and reports
// the paper-style flop accounting.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/hotengine"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/perfmodel"
	"repro/internal/vortex"
)

func main() {
	h := cliutil.NewHarness("vortexsim", true)
	nTheta := flag.Int("ntheta", 64, "points around each ring")
	nCore := flag.Int("ncore", 4, "points across each core")
	steps := flag.Int("steps", 30, "timesteps")
	remeshEvery := flag.Int("remesh", 10, "remesh interval (0 = off)")
	dt := flag.Float64("dt", 0.02, "timestep")
	sigma := flag.Float64("sigma", 0.12, "core smoothing radius")
	theta := flag.Float64("theta", 0.5, "opening angle")
	procs := flag.Int("procs", 1, "in-process ranks (>1 runs the distributed engine; remeshing off)")
	flag.Parse()
	h.Start(cliutil.Flags{N: *nTheta * *nCore, Procs: *procs, Steps: *steps})
	defer h.Close()

	// Two parallel rings, offset so they attract and merge.
	sys := ic.RingPair(*sigma, *nTheta, *nCore)
	fmt.Printf("initial particles: %d (paper run: 57,000)\n", sys.Len())

	var total diag.Counters
	var wall float64
	if *procs > 1 {
		rc := vortex.RunConfig{
			Sigma: *sigma, Theta: *theta,
			EvalWorkers: h.EvalWorkers, PrefetchDepth: h.Prefetch,
			Steps: *steps, DT: *dt, Instruments: h.Instruments(),
		}
		sys, total, wall = runParallel(h, h.World(nil, 0), sys, rc)
	} else {
		start := time.Now()
		for s := 0; s < *steps; s++ {
			ctr := vortex.Step(sys, *sigma, *theta, *dt)
			total.Add(ctr)
			if *remeshEvery > 0 && (s+1)%*remeshEvery == 0 {
				before := sys.Len()
				sys = vortex.Remesh(sys, *sigma/2, 1e-4)
				fmt.Printf("step %3d: remesh %d -> %d particles\n", s, before, sys.Len())
			}
			if s%10 == 0 {
				c := vortex.Centroid(sys.Pos, sys.Alpha)
				i := vortex.LinearImpulse(sys.Pos, sys.Alpha)
				fmt.Printf("step %3d: centroid z=%.3f, impulse=(%.3f,%.3f,%.3f)\n",
					s, c.Z, i.X, i.Y, i.Z)
			}
		}
		wall = time.Since(start).Seconds()
	}

	fmt.Printf("final particles: %d (paper ended at 360,000)\n", sys.Len())
	fmt.Printf("vortex interactions: %d, flops: %d\n", total.VortexPP, total.Flops())
	fmt.Printf("host: %.2fs, %.1f Mflops-equivalent\n", wall, float64(total.Flops())/wall/1e6)
	est := perfmodel.Hyglac.Model(total.Flops(), perfmodel.RegimeTreeClustered, msg.PhaseTraffic{})
	fmt.Printf("modeled on %s: %s (paper sustained ~950 Mflops over 20 h)\n",
		perfmodel.Hyglac.Name, est)
}

// runParallel evolves the ring pair global on the distributed vortex
// engine in world w, writes the harness reports, and prints rank 0's
// per-phase timer breakdown and the final centroid and impulse. It
// returns the gathered final system, the summed counters and the wall
// time; a rank failure exits 3 with the world's structured abort.
func runParallel(h *cliutil.Harness, w *msg.World, global *core.System, rc vortex.RunConfig) (*core.System, diag.Counters, float64) {
	engines, wall := cliutil.Run(h, w, func(c *msg.Comm) *vortex.ParallelEngine {
		return vortex.Run(c, global, rc)
	})
	merged, total := hotengine.Merge(engines)
	h.Report(merged.Len(), wall, w, hotengine.Reports(engines))
	e := engines[0]
	fmt.Println("rank 0 phase breakdown:")
	for _, ph := range e.Timer.Phases() {
		fmt.Printf("  %-12s %v\n", ph, e.Timer.Get(ph))
	}
	fmt.Printf("  rounds=%d remoteCells=%d\n", e.Rounds, e.RemoteCells)
	c := vortex.Centroid(merged.Pos, merged.Alpha)
	i := vortex.LinearImpulse(merged.Pos, merged.Alpha)
	fmt.Printf("final state: centroid z=%.3f, impulse=(%.3f,%.3f,%.3f)\n", c.Z, i.X, i.Y, i.Z)
	return merged, total, wall
}
