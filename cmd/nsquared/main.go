// Command nsquared runs the O(N^2) ring-decomposed direct benchmark
// the paper used to compare raw machine speed against the GRAPE
// special-purpose hardware, and prints the paper-style Gflops
// accounting.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/perfmodel"

	"repro/internal/direct"
)

func main() {
	n := flag.Int("n", 20000, "number of bodies")
	procs := flag.Int("procs", 8, "simulated processors")
	steps := flag.Int("steps", 4, "timesteps (the paper ran 4)")
	flag.Parse()

	sys := ic.UniformSphere(*n, 1.0, 7)
	start := time.Now()
	var pp uint64
	counts := make([]uint64, *procs)
	msg.Run(*procs, func(c *msg.Comm) {
		mine := sys.Slab(c.Rank(), c.Size())
		for s := 0; s < *steps; s++ {
			ctr := direct.Ring(c, mine.Pos, mine.Mass, mine.Acc, mine.Pot, 1e-6)
			counts[c.Rank()] += ctr.PP
		}
	})
	wall := time.Since(start).Seconds()
	for _, v := range counts {
		pp += v
	}
	flops := pp * 38
	fmt.Printf("N=%d procs=%d steps=%d\n", *n, *procs, *steps)
	fmt.Printf("interactions %d, flops %d\n", pp, flops)
	fmt.Printf("host: %.2fs, %.3f Gflops\n", wall, float64(flops)/wall/1e9)

	// The paper's exact benchmark: 1e6 bodies, 4 steps, 6800 procs.
	paperFlops := uint64(4) * 38 * 1_000_000 * 1_000_000
	est := perfmodel.ASCIRed.Model(paperFlops, perfmodel.RegimeKernel, msg.PhaseTraffic{})
	fmt.Printf("paper benchmark modeled: %s (paper: 635 Gflops in 239.3s)\n", est)
}
