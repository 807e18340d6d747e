package experiments

import (
	"fmt"
	"math"

	"repro/internal/msg"
	"repro/internal/npb"
	"repro/internal/perfmodel"
	"repro/internal/render"
	"repro/internal/vec"
)

// Figure renders the log-density projection of a scaled cosmology run
// after some evolution, reproducing Figures 1 (Red-scale parameters)
// and 2 (Loki-scale) qualitatively.
//
// Note the projected system is the *initial* conditions when steps is
// zero; with steps > 0 the treecode evolves a copy first, so clumping
// (the figures' dark-matter halos) shows up.
func Figure(path string, grid, procs, steps, pixels int) error {
	sys := cosmoSystem(grid, 9)
	if steps > 0 {
		sys, _ = runTreecode(sys, procs, steps, 3e-3)
	}
	img := render.Project(sys, vec.V3{}, 0.55, pixels, pixels)
	return img.WritePGM(path)
}

// NPBTable runs the NPB suite at the given rank count and attaches
// modeled Mop/s on Loki and ASCI Red: the reproduction of Table 3
// (16 ranks, miniB) and Table 4 / Figure 3 (rank sweep, miniA).
type NPBRow struct {
	Kernel      string
	Ranks       int
	HostMops    float64
	LokiMops    float64
	RedMops     float64
	RedOverLoki float64
	Verified    bool
}

// ClassScale inflates the mini-problem op counts and data volumes to
// the regime of the paper's Class B problems before modeling machine
// time: NPB Class B is ~512-1000x our mini sizes, and without the
// scaling every kernel would sit in the latency-dominated corner that
// real Class B runs only reach on the IS kernel. Message *counts*
// (collective rounds, alltoall fan-out) do not grow with class, so
// they are left unscaled.
const ClassScale = 512

// byteExponent gives each kernel's communication-growth law: data-
// moving kernels (transposes, key exchange, vector gathers) carry
// bytes proportional to the problem volume; halo-exchange kernels
// (LU, MG) carry surface terms ~ volume^(2/3); EP's reduction is
// size-independent.
var byteExponent = map[string]float64{
	"EP": 0, "IS": 1, "FT": 1, "BT": 1, "SP": 1, "CG": 1,
	"LU": 2.0 / 3.0, "MG": 2.0 / 3.0,
}

// NPBTable3 reproduces Table 3's shape: per-kernel Mop/s on Loki vs
// ASCI Red at 16 processors.
func NPBTable3(sizes npb.Sizes) []NPBRow {
	return npbRows(16, sizes)
}

// NPBTable4 reproduces Table 4 / Figure 3: the rank sweep on Loki.
func NPBTable4(sizes npb.Sizes, ranks []int) map[int][]NPBRow {
	out := make(map[int][]NPBRow)
	for _, np := range ranks {
		out[np] = npbRows(np, sizes)
	}
	return out
}

func npbRows(np int, sizes npb.Sizes) []NPBRow {
	results := npb.RunSuite(np, sizes)
	rows := make([]NPBRow, len(results))
	for i, r := range results {
		bScale := math.Pow(ClassScale, byteExponent[r.Kernel])
		comm := msg.PhaseTraffic{Msgs: r.CommMsgs, Bytes: uint64(float64(r.CommBytes) * bScale)}
		ops := r.Ops * ClassScale
		// Model compute time from the op count at the machines'
		// scalar rate (NPB ops are mixed flops; use the same kernel
		// rate for both machines -- identical CPUs -- so the network
		// term is what differentiates them, as the paper found).
		lokiM := scaledMachine(perfmodel.Loki, np)
		redM := scaledMachine(perfmodel.ASCIRed, np)
		loki := lokiM.Model(ops, perfmodel.RegimeKernel, comm)
		red := redM.Model(ops, perfmodel.RegimeKernel, comm)
		rows[i] = NPBRow{
			Kernel:   r.Kernel,
			Ranks:    np,
			HostMops: r.Mops(),
			LokiMops: float64(ops) / loki.TotalSec / 1e6,
			RedMops:  float64(ops) / red.TotalSec / 1e6,
			Verified: r.Verified,
		}
		if rows[i].LokiMops > 0 {
			rows[i].RedOverLoki = rows[i].RedMops / rows[i].LokiMops
		}
	}
	return rows
}

// scaledMachine returns a copy of m with np processors (the paper's
// Table 3 compares 16-processor slices of both machines).
func scaledMachine(m perfmodel.Machine, np int) *perfmodel.Machine {
	m.Nodes = np
	m.ProcsPerNode = 1
	return &m
}

// FormatNPBRows renders rows like the paper's Table 3.
func FormatNPBRows(rows []NPBRow) string {
	s := fmt.Sprintf("%-3s %6s %12s %12s %12s %10s\n", "Krn", "Ranks", "Host Mop/s", "Loki Mop/s", "Red Mop/s", "Red/Loki")
	for _, r := range rows {
		s += fmt.Sprintf("%-3s %6d %12.1f %12.1f %12.1f %10.2f\n",
			r.Kernel, r.Ranks, r.HostMops, r.LokiMops, r.RedMops, r.RedOverLoki)
	}
	return s
}
