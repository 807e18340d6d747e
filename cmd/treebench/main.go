// Command treebench benchmarks the parallel hashed oct-tree on a
// clustered body distribution, printing interaction counts, host
// throughput, and modeled throughput on the paper's machines.
package main

import (
	"flag"
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

func main() {
	h := cliutil.NewHarness("treebench", false)
	n := flag.Int("n", 100000, "number of bodies")
	procs := flag.Int("procs", 8, "simulated processors")
	steps := flag.Int("steps", 3, "timesteps")
	theta := flag.Float64("theta", 0, "Barnes-Hut opening angle (0 = use -atol)")
	atol := flag.Float64("atol", 1e-4, "Salmon-Warren acceleration error bound")
	bucket := flag.Int("bucket", 16, "tree leaf size")
	chaosSpec := flag.String("chaos", "", `fault injection spec, e.g. "seed=7,crash=0.001,crashphase=walk" (test harness; keys: seed, crash, crashphase, stall, stallphase, latency, reorder)`)
	watchdog := flag.Duration("watchdog", 0, "abort with a stall report after this long without progress (0 = off; chaos runs default to 5s)")
	dtmode := flag.String("dtmode", "uniform", "time stepping: uniform (one rung) or block (hierarchical per-body sub-steps)")
	eta := flag.Float64("eta", 0.02, "block-timestep criterion scale: dt_i = eta*sqrt(eps/|a_i|)")
	flag.Parse()
	inj := h.Start(cliutil.Flags{N: *n, Procs: *procs, Steps: *steps, DTMode: *dtmode, Eta: *eta, Chaos: *chaosSpec})
	defer h.Close()

	global := ic.Plummer(*n, 1.0, 42)
	mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: *atol, Quad: true}
	if *theta > 0 {
		mac = grav.MACParams{Kind: grav.MACBarnesHut, Theta: *theta, Quad: true}
	}
	rc := parallel.RunConfig{
		Config: parallel.Config{
			MAC: mac, Bucket: *bucket, Eps2: 1e-6,
			EvalWorkers: h.EvalWorkers, PrefetchDepth: h.Prefetch,
		},
		Steps: *steps, DT: 1e-3, Block: *dtmode == "block", Eta: *eta,
		Instruments: h.Instruments(),
	}
	w := h.World(inj, *watchdog)
	engines, wall := cliutil.Run(h, w, func(c *msg.Comm) *parallel.Engine {
		return parallel.Run(c, global, rc)
	})

	_, total := hotengine.Merge(engines)
	inter, flops := total.Interactions(), total.Flops()
	evals := uint64(*steps + 1)
	fmt.Printf("N=%d procs=%d evaluations=%d\n", *n, *procs, evals)
	fmt.Printf("interactions: %d total, %.1f per body per evaluation\n",
		inter, float64(inter)/float64(*n)/float64(evals))
	fmt.Printf("flops (38/interaction): %d\n", flops)
	fmt.Printf("host: %.2fs wall, %.2f Gflops-equivalent\n", wall, float64(flops)/wall/1e9)
	comm := w.MaxRankTraffic()
	fmt.Printf("comm (max rank): %d msgs, %.2f MB\n", comm.Msgs, float64(comm.Bytes)/1e6)
	if rc.Block {
		var active, sinks uint64
		for _, e := range engines {
			active += e.Stepper.Stats.ActiveSinks
			sinks += e.Stepper.Stats.TotalSinks
		}
		st := engines[0].Stepper.Stats
		if sinks > 0 {
			fmt.Printf("block stepping: %d sub-steps (%d full + %d partial evals), active fraction %.4f\n",
				st.SubSteps, st.FullEvals, st.PartialEvals, float64(active)/float64(sinks))
		}
	}

	h.Report(*n, wall, w, hotengine.Reports(engines))
	for _, m := range []*perfmodel.Machine{&perfmodel.Loki, &perfmodel.ASCIRed} {
		est := m.Model(flops, perfmodel.RegimeTreeEarly, comm)
		fmt.Printf("modeled on %s\n  %s\n", m.Name, est)
	}
}
