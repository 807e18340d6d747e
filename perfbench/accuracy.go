package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/vec"
)

// Correctness budgets. The force budgets sit about three times above
// the errors the Salmon-Warren MAC at AccelTol 1e-4 gives on these
// inputs; the drift budgets about three times above the drift the
// fixed problems show.
const (
	forceErrP99Budget = 1e-3
	forceErrMaxBudget = 1e-2
)

// gate is one correctness check of a run.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func check(name string, ok bool, format string, args ...any) gate {
	return gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// sampleSinks picks k distinct body IDs out of n, seeded, so the
// accuracy sample is fixed for a given seed.
func sampleSinks(n, k int, seed int64) []int64 {
	if k >= n {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)[:k]
	out := make([]int64, k)
	for i, p := range perm {
		out[i] = int64(p)
	}
	return out
}

// byID returns the position of every body ID in the systems, which
// hold each body exactly once between them (ranks or one serial
// system).
type bodyRef struct {
	sys *core.System
	i   int
}

func indexByID(systems []*core.System, n int) ([]bodyRef, error) {
	refs := make([]bodyRef, n)
	seen := 0
	for _, s := range systems {
		for i := 0; i < s.Len(); i++ {
			id := s.ID[i]
			if id < 0 || int(id) >= n || refs[id].sys != nil {
				return nil, fmt.Errorf("body id %d missing, duplicated or out of range", id)
			}
			refs[id] = bodyRef{s, i}
			seen++
		}
	}
	if seen != n {
		return nil, fmt.Errorf("%d bodies found, want %d", seen, n)
	}
	return refs, nil
}

// forceErrors compares the accelerations the systems hold against
// direct summation over every body, for the sampled sinks, and
// returns |a_tree - a_direct| / |a_direct| per sink. The reference
// is plain float64 Plummer-softened summation, independent of the
// program's kernels.
func forceErrors(systems []*core.System, n int, sinks []int64, eps2 float64) ([]float64, error) {
	refs, err := indexByID(systems, n)
	if err != nil {
		return nil, err
	}
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for id, r := range refs {
		pos[id] = r.sys.Pos[r.i]
		mass[id] = r.sys.Mass[r.i]
	}
	errs := make([]float64, len(sinks))
	for k, id := range sinks {
		var ax, ay, az float64
		xi := pos[id]
		for j := range pos {
			if int64(j) == id {
				continue
			}
			dx, dy, dz := pos[j].X-xi.X, pos[j].Y-xi.Y, pos[j].Z-xi.Z
			r2 := dx*dx + dy*dy + dz*dz + eps2
			f := mass[j] / (r2 * math.Sqrt(r2))
			ax += f * dx
			ay += f * dy
			az += f * dz
		}
		ref := vec.V3{X: ax, Y: ay, Z: az}
		r := refs[id]
		errs[k] = r.sys.Acc[r.i].Sub(ref).Norm() / ref.Norm()
	}
	return errs, nil
}

// forceGates checks the error distribution against the budgets.
func forceGates(errs []float64) []gate {
	p99, mx := quantile(errs, 0.99), maxOf(errs)
	return []gate{
		check("force_err_p99", p99 <= forceErrP99Budget, "p99 %.3g (budget %.3g, %d sinks)", p99, forceErrP99Budget, len(errs)),
		check("force_err_max", mx <= forceErrMaxBudget, "max %.3g (budget %.3g)", mx, forceErrMaxBudget),
	}
}

// driftGate checks |dE/E0| against a budget.
func driftGate(drift, budget float64) gate {
	return check("energy_drift", drift <= budget, "|dE/E0| %.3g (budget %.3g)", drift, budget)
}

// sameGate checks that every repetition reproduced the first one's
// value (interaction counts, force hashes).
func sameGate[T comparable](name string, vals []T) gate {
	for i, v := range vals {
		if v != vals[0] {
			return check(name, false, "repetition %d gave %v, repetition 0 gave %v", i, v, vals[0])
		}
	}
	return check(name, len(vals) > 0, "%d repetitions agree on %v", len(vals), first(vals))
}

func first[T any](vals []T) any {
	if len(vals) == 0 {
		return nil
	}
	return vals[0]
}

// stateHash is an FNV-64a digest of a body state in body-ID order:
// ID, position and velocity bits.
func stateHash(pos, vel [][3]float64) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for i := range pos {
		word(uint64(i))
		for _, x := range pos[i] {
			word(math.Float64bits(x))
		}
		for _, x := range vel[i] {
			word(math.Float64bits(x))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// energy sums the kinetic and potential energy of one system's bodies
// (the potential halved for pair double counting), the quantity
// integrate.Energy reports.
func energy(s *core.System) float64 {
	var e float64
	for i := range s.Vel {
		e += 0.5*s.Mass[i]*s.Vel[i].Norm2() + 0.5*s.Mass[i]*s.Pot[i]
	}
	return e
}
