// Command sphsim demonstrates smoothed particle hydrodynamics on the
// treecode (the paper: "Smoothed Particle Hydrodynamics is implemented
// with 3000 lines" atop the same library): a self-gravitating gas
// sphere evolves with gravity plus pressure, next to a pressureless
// control run. Pressure support slows the central collapse -- the
// qualitative physics an SPH+gravity code must show.
package main

import (
	"flag"
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/hotengine"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/msg"
	"repro/internal/sph"
	"repro/internal/vec"
)

func main() {
	h := cliutil.NewHarness("sphsim", true)
	n := flag.Int("n", 4000, "gas particles")
	steps := flag.Int("steps", 150, "timesteps")
	dt := flag.Float64("dt", 4e-3, "timestep")
	cs := flag.Float64("cs", 0.8, "isothermal sound speed of the gas run")
	procs := flag.Int("procs", 1, "in-process ranks (>1 runs the distributed engine)")
	flag.Parse()
	h.Start(cliutil.Flags{N: *n, Procs: *procs, Steps: *steps})
	defer h.Close()

	fmt.Printf("N = %d gas particles, %d steps of dt = %g", *n, *steps, *dt)
	if *procs > 1 {
		fmt.Printf(" on %d ranks", *procs)
	}
	fmt.Printf("\n\n")
	var gas, control *core.System
	var ctrGas, ctrCtl diag.Counters
	if *procs > 1 {
		// Only the gas run is instrumented: it is the physics of
		// interest; the pressureless control is a reference computation.
		global := ic.GasSphere(*n, 99)
		w := h.World(nil, 0)
		engines, wall := runParallel(h, w, global, *steps, *dt, *cs, h.Instruments())
		gas, ctrGas = hotengine.Merge(engines)
		h.Report(gas.Len(), wall, w, hotengine.Reports(engines))

		engines, _ = runParallel(h, msg.NewWorld(*procs), global, *steps, *dt, 0, hotengine.Instruments{})
		control, ctrCtl = hotengine.Merge(engines)
	} else {
		gas, ctrGas = serialRun(*n, *steps, *dt, *cs)
		control, ctrCtl = serialRun(*n, *steps, *dt, 0)
	}

	fGas := centralMassFraction(gas)
	fCtl := centralMassFraction(control)
	fmt.Println("mass fraction within r < 0.1 of the center after the run:")
	fmt.Printf("  with pressure (cs=%.2f): %.4f\n", *cs, fGas)
	fmt.Printf("  pressureless control   : %.4f\n", fCtl)
	if fCtl > fGas {
		fmt.Println("  -> pressure support slowed the collapse, as it must")
	}
	fmt.Printf("\nwork: gas run %d SPH pairs + %d gravity interactions (%d flops total)\n",
		ctrGas.SPHPairs, ctrGas.Interactions(), ctrGas.Flops())
	fmt.Printf("      control  %d gravity interactions\n", ctrCtl.Interactions())
}

// serialRun evolves a cold uniform gas sphere under gravity plus
// isothermal pressure (cs = 0 disables pressure). Both force
// evaluations share one tree build per step.
func serialRun(n, steps int, dt, cs float64) (*core.System, diag.Counters) {
	sys := ic.GasSphere(n, 99)
	p := &sph.Params{EOS: sph.Isothermal, CS: cs, AlphaVisc: 1, BetaVisc: 2}
	var total diag.Counters

	forces := func(s *core.System) {
		// sph.Step sorts, builds the tree, fills Rho and the pressure
		// acceleration in Acc (zero work when cs == 0 still computes
		// density; harmless for the control).
		tr, ctr := sph.Step(s, p, 16)
		total.Add(ctr)
		pressure := append(s.Acc[:0:0], s.Acc...)
		if cs == 0 {
			for i := range pressure {
				pressure[i] = vec.V3{}
			}
		}
		gctr := tr.Gravity(1e-4)
		total.Add(gctr)
		for i := range s.Acc {
			s.Acc[i] = s.Acc[i].Add(pressure[i])
		}
	}
	forces(sys)
	integrate.Leapfrog(sys, forces, dt, steps)
	return sys, total
}

// runParallel evolves the gas sphere global on the distributed engine
// in world w and prints rank 0's phase breakdown. The pressureless
// control (cs = 0) disables viscosity along with the sound speed,
// which zeroes the SPH acceleration exactly. in instruments every
// rank; a rank failure exits 3 with the world's structured abort.
func runParallel(h *cliutil.Harness, w *msg.World, global *core.System, steps int, dt, cs float64,
	in hotengine.Instruments) ([]*sph.ParallelEngine, float64) {
	p := sph.Params{EOS: sph.Isothermal, CS: cs, AlphaVisc: 1, BetaVisc: 2}
	if cs == 0 {
		p.AlphaVisc, p.BetaVisc = 0, 0
	}
	rc := sph.RunConfig{
		ParallelConfig: sph.ParallelConfig{
			Params: p, Gravity: true, Eps2: 1e-4,
			EvalWorkers: h.EvalWorkers, PrefetchDepth: h.Prefetch,
		},
		Steps: steps, DT: dt, Instruments: in,
	}
	engines, wall := cliutil.Run(h, w, func(c *msg.Comm) *sph.ParallelEngine {
		return sph.Run(c, global, rc)
	})
	e := engines[0]
	fmt.Printf("rank 0 phase breakdown (cs=%.2f):\n", cs)
	for _, ph := range e.Timer.Phases() {
		fmt.Printf("  %-12s %v\n", ph, e.Timer.Get(ph))
	}
	fmt.Printf("  rounds=%d remoteCells=%d\n", e.Rounds, e.RemoteCells)
	return engines, wall
}

// centralMassFraction returns the mass fraction within 0.1 of the
// center of mass.
func centralMassFraction(s *core.System) float64 {
	c := s.CenterOfMass()
	var m float64
	for i := 0; i < s.Len(); i++ {
		if s.Pos[i].Sub(c).Norm() < 0.1 {
			m += s.Mass[i]
		}
	}
	return m / s.TotalMass()
}
