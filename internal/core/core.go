// Package core defines the particle system shared by every physics
// module: a structure-of-arrays container for bodies with the fields
// the hashed oct-tree needs (position, mass, Morton key, work weight)
// plus optional per-application fields (velocity, acceleration,
// potential, vortex strength, smoothing length).
//
// Structure-of-arrays keeps the gravity kernel's memory traffic at the
// paper's 32 bytes per interaction and makes the sort/exchange steps
// of the domain decomposition simple slice permutations.
package core

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/vec"
)

// System holds N bodies. Pos, Mass, Key, Work and ID always have
// length N; the remaining slices are either nil (feature unused) or
// length N.
type System struct {
	Pos  []vec.V3
	Mass []float64
	Key  []keys.Key
	// Work is the per-body cost estimate from the previous force
	// evaluation, used to weight the domain decomposition.
	Work []float64
	// ID is a stable identity that survives sorting and exchange.
	ID []int64

	Vel []vec.V3
	Acc []vec.V3
	Pot []float64
	// Alpha is the vector-valued vortex particle strength.
	Alpha []vec.V3
	// H is the SPH smoothing length; Rho the SPH density.
	H   []float64
	Rho []float64
	// Rung is the block-timestep rung: body i sub-steps the global
	// step in 2^Rung[i] pieces. Carried through sort and exchange so
	// bodies keep their rung when they migrate ranks mid-step.
	Rung []uint8
}

// New returns a system of n bodies with the always-present fields
// allocated and Work initialized to 1 (uniform first-step weights).
func New(n int) *System {
	s := &System{
		Pos:  make([]vec.V3, n),
		Mass: make([]float64, n),
		Key:  make([]keys.Key, n),
		Work: make([]float64, n),
		ID:   make([]int64, n),
	}
	for i := range s.Work {
		s.Work[i] = 1
		s.ID[i] = int64(i)
	}
	return s
}

// Len returns the number of bodies.
func (s *System) Len() int { return len(s.Pos) }

// EnableDynamics allocates Vel, Acc and Pot if absent.
func (s *System) EnableDynamics() {
	n := s.Len()
	if s.Vel == nil {
		s.Vel = make([]vec.V3, n)
	}
	if s.Acc == nil {
		s.Acc = make([]vec.V3, n)
	}
	if s.Pot == nil {
		s.Pot = make([]float64, n)
	}
}

// EnableVortex allocates the vortex strength field if absent.
func (s *System) EnableVortex() {
	if s.Alpha == nil {
		s.Alpha = make([]vec.V3, s.Len())
	}
}

// EnableRungs allocates the block-timestep rung field if absent
// (all bodies start on rung zero: the full global step).
func (s *System) EnableRungs() {
	if s.Rung == nil {
		s.Rung = make([]uint8, s.Len())
	}
}

// EnableSPH allocates the SPH fields if absent.
func (s *System) EnableSPH() {
	if s.H == nil {
		s.H = make([]float64, s.Len())
	}
	if s.Rho == nil {
		s.Rho = make([]float64, s.Len())
	}
}

// fields returns all non-nil slices as swappable views; used by Swap
// and the permutation helpers so new fields cannot be forgotten.
func (s *System) swap(i, j int) {
	s.Pos[i], s.Pos[j] = s.Pos[j], s.Pos[i]
	s.Mass[i], s.Mass[j] = s.Mass[j], s.Mass[i]
	s.Key[i], s.Key[j] = s.Key[j], s.Key[i]
	s.Work[i], s.Work[j] = s.Work[j], s.Work[i]
	s.ID[i], s.ID[j] = s.ID[j], s.ID[i]
	if s.Vel != nil {
		s.Vel[i], s.Vel[j] = s.Vel[j], s.Vel[i]
	}
	if s.Acc != nil {
		s.Acc[i], s.Acc[j] = s.Acc[j], s.Acc[i]
	}
	if s.Pot != nil {
		s.Pot[i], s.Pot[j] = s.Pot[j], s.Pot[i]
	}
	if s.Alpha != nil {
		s.Alpha[i], s.Alpha[j] = s.Alpha[j], s.Alpha[i]
	}
	if s.H != nil {
		s.H[i], s.H[j] = s.H[j], s.H[i]
	}
	if s.Rho != nil {
		s.Rho[i], s.Rho[j] = s.Rho[j], s.Rho[i]
	}
	if s.Rung != nil {
		s.Rung[i], s.Rung[j] = s.Rung[j], s.Rung[i]
	}
}

// AssignKeys computes Morton keys for every body within the domain.
func (s *System) AssignKeys(d keys.Domain) {
	for i, p := range s.Pos {
		s.Key[i] = d.KeyOf(p)
	}
}

// AssignHilbertKeys computes Hilbert keys instead (decomposition
// ablation; the tree build re-assigns Morton keys afterwards).
func (s *System) AssignHilbertKeys(d keys.Domain) {
	for i, p := range s.Pos {
		s.Key[i] = d.HilbertKeyOf(p)
	}
}

// byKey adapts a System to package sort for SortByKeyStd (see
// sort.go; SortByKey itself is the radix path).
type byKey struct{ s *System }

func (b byKey) Len() int           { return b.s.Len() }
func (b byKey) Less(i, j int) bool { return b.s.Key[i] < b.s.Key[j] }
func (b byKey) Swap(i, j int)      { b.s.swap(i, j) }

// Sorted reports whether keys are in ascending order.
func (s *System) Sorted() bool {
	for i := 1; i < len(s.Key); i++ {
		if s.Key[i] < s.Key[i-1] {
			return false
		}
	}
	return true
}

// TotalMass returns the mass sum.
func (s *System) TotalMass() float64 {
	m := 0.0
	for _, v := range s.Mass {
		m += v
	}
	return m
}

// CenterOfMass returns the mass-weighted mean position.
func (s *System) CenterOfMass() vec.V3 {
	var c vec.V3
	m := 0.0
	for i := range s.Pos {
		c = c.Add(s.Pos[i].Scale(s.Mass[i]))
		m += s.Mass[i]
	}
	if m == 0 {
		return vec.V3{}
	}
	return c.Scale(1 / m)
}

// Momentum returns the total momentum (requires Vel).
func (s *System) Momentum() vec.V3 {
	var p vec.V3
	for i := range s.Vel {
		p = p.Add(s.Vel[i].Scale(s.Mass[i]))
	}
	return p
}

// KineticEnergy returns sum(m v^2 / 2) (requires Vel).
func (s *System) KineticEnergy() float64 {
	e := 0.0
	for i := range s.Vel {
		e += 0.5 * s.Mass[i] * s.Vel[i].Norm2()
	}
	return e
}

// PotentialEnergy returns sum(m pot)/2 (requires Pot filled by a force
// evaluation; the half corrects for double counting pairs).
func (s *System) PotentialEnergy() float64 {
	e := 0.0
	for i := range s.Pot {
		e += 0.5 * s.Mass[i] * s.Pot[i]
	}
	return e
}

// Slice returns a view of bodies [lo,hi) sharing storage with s.
func (s *System) Slice(lo, hi int) *System {
	v := &System{
		Pos:  s.Pos[lo:hi],
		Mass: s.Mass[lo:hi],
		Key:  s.Key[lo:hi],
		Work: s.Work[lo:hi],
		ID:   s.ID[lo:hi],
	}
	if s.Vel != nil {
		v.Vel = s.Vel[lo:hi]
	}
	if s.Acc != nil {
		v.Acc = s.Acc[lo:hi]
	}
	if s.Pot != nil {
		v.Pot = s.Pot[lo:hi]
	}
	if s.Alpha != nil {
		v.Alpha = s.Alpha[lo:hi]
	}
	if s.H != nil {
		v.H = s.H[lo:hi]
	}
	if s.Rho != nil {
		v.Rho = s.Rho[lo:hi]
	}
	if s.Rung != nil {
		v.Rung = s.Rung[lo:hi]
	}
	return v
}

// AppendFrom appends body i of src to s.
func (s *System) AppendFrom(src *System, i int) {
	s.Pos = append(s.Pos, src.Pos[i])
	s.Mass = append(s.Mass, src.Mass[i])
	s.Key = append(s.Key, src.Key[i])
	s.Work = append(s.Work, src.Work[i])
	s.ID = append(s.ID, src.ID[i])
	if src.Vel != nil {
		s.Vel = append(s.Vel, src.Vel[i])
	}
	if src.Acc != nil {
		s.Acc = append(s.Acc, src.Acc[i])
	}
	if src.Pot != nil {
		s.Pot = append(s.Pot, src.Pot[i])
	}
	if src.Alpha != nil {
		s.Alpha = append(s.Alpha, src.Alpha[i])
	}
	if src.H != nil {
		s.H = append(s.H, src.H[i])
	}
	if src.Rho != nil {
		s.Rho = append(s.Rho, src.Rho[i])
	}
	if src.Rung != nil {
		s.Rung = append(s.Rung, src.Rung[i])
	}
}

// Slab returns a copy of rank's contiguous share of s when it is split
// over size ranks: bodies [rank*n/size, (rank+1)*n/size), every column
// s carries. It is the scatter every distributed run starts from;
// Gather is its inverse.
func (s *System) Slab(rank, size int) *System {
	n := s.Len()
	return Gather([]*System{s.Slice(rank*n/size, (rank+1)*n/size)})
}

// Gather concatenates parts, in order, into one new system: the
// rank-major gather of a distributed run's per-rank systems.
func Gather(parts []*System) *System {
	out := New(0)
	for _, p := range parts {
		for i := 0; i < p.Len(); i++ {
			out.AppendFrom(p, i)
		}
	}
	return out
}

// Validate checks internal consistency (slice lengths), returning a
// descriptive error for misuse.
func (s *System) Validate() error {
	n := s.Len()
	check := func(name string, l, want int) error {
		if l != want {
			return fmt.Errorf("core: field %s has length %d, want %d", name, l, want)
		}
		return nil
	}
	if err := check("Mass", len(s.Mass), n); err != nil {
		return err
	}
	if err := check("Key", len(s.Key), n); err != nil {
		return err
	}
	if err := check("Work", len(s.Work), n); err != nil {
		return err
	}
	if err := check("ID", len(s.ID), n); err != nil {
		return err
	}
	for name, l := range map[string]int{
		"Vel": len(s.Vel), "Acc": len(s.Acc), "Pot": len(s.Pot),
		"Alpha": len(s.Alpha), "H": len(s.H), "Rho": len(s.Rho),
		"Rung": len(s.Rung),
	} {
		if l != 0 {
			if err := check(name, l, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// BytesPerBody is the logical wire size of one body during particle
// exchange: position, velocity, mass, work and id. The paper quotes
// 32 bytes of data read per interaction (position + mass); exchange
// carries the dynamic state too.
const BytesPerBody = 3*8 + 3*8 + 8 + 8 + 8
