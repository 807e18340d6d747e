// Package ic generates initial conditions for the example problems:
// Plummer spheres and uniform spheres for galactic dynamics, the cold
// collapse used by accuracy studies, two-body circular orbits for
// integrator validation, and the vortex-ring discretizations for the
// fluid dynamics runs (Hyglac's showcase problem).
package ic

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/vec"
)

// Plummer samples an N-body realization of the Plummer sphere with
// total mass 1, scale radius a, in virial equilibrium (the standard
// Aarseth-Henon-Wielen sampling), truncated at 10a.
func Plummer(n int, a float64, seed int64) *core.System {
	rng := rand.New(rand.NewSource(seed))
	sys := core.New(n)
	sys.EnableDynamics()
	for i := 0; i < n; i++ {
		sys.Mass[i] = 1.0 / float64(n)
		// Radius from the inverse cumulative mass profile.
		var r float64
		for {
			x := rng.Float64()
			r = a / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
			if r < 10*a {
				break
			}
		}
		sys.Pos[i] = isotropic(rng).Scale(r)
		// Velocity via von Neumann rejection on q^2 (1-q^2)^(7/2).
		var q float64
		for {
			q = rng.Float64()
			g := rng.Float64() * 0.1
			if g < q*q*math.Pow(1-q*q, 3.5) {
				break
			}
		}
		vesc := math.Sqrt(2) * math.Pow(1+r*r/(a*a), -0.25) / math.Sqrt(a)
		sys.Vel[i] = isotropic(rng).Scale(q * vesc)
	}
	// Zero the bulk motion.
	com := sys.CenterOfMass()
	mom := sys.Momentum()
	for i := 0; i < n; i++ {
		sys.Pos[i] = sys.Pos[i].Sub(com)
		sys.Vel[i] = sys.Vel[i].Sub(mom) // total mass is 1
	}
	return sys
}

// UniformSphere places n equal-mass bodies uniformly in a sphere of
// the given radius, at rest (cold collapse when evolved).
func UniformSphere(n int, radius float64, seed int64) *core.System {
	rng := rand.New(rand.NewSource(seed))
	sys := core.New(n)
	sys.EnableDynamics()
	for i := 0; i < n; i++ {
		sys.Mass[i] = 1.0 / float64(n)
		r := radius * math.Cbrt(rng.Float64())
		sys.Pos[i] = isotropic(rng).Scale(r)
	}
	return sys
}

// GasSphere is the SPH runs' initial gas: UniformSphere(n, 1, seed)
// at rest, with SPH fields and a smoothing length of 0.1 (about twice
// the mean spacing for a few thousand bodies).
func GasSphere(n int, seed int64) *core.System {
	sys := UniformSphere(n, 1.0, seed)
	sys.EnableSPH()
	for i := range sys.H {
		sys.H[i] = 0.1
	}
	return sys
}

// RingPair is the vortex runs' two-ring fusion setup, after the
// paper's Hyglac simulation: two unit rings of core radius sigma with
// parallel axes, offset by +-0.75 along x so they approach, stretch
// and merge. Each ring has nTheta*nCore particles.
func RingPair(sigma float64, nTheta, nCore int) *core.System {
	sys := core.New(0)
	sys.EnableDynamics()
	VortexRing(sys, 1.0, 1.0, sigma, vec.V3{X: -0.75}, vec.V3{Z: 1}, nTheta, nCore, 41)
	VortexRing(sys, 1.0, 1.0, sigma, vec.V3{X: 0.75}, vec.V3{Z: 1}, nTheta, nCore, 43)
	return sys
}

// TwoBody returns a two-body circular orbit with separation d and
// masses m1, m2 (softening must be << d for the orbit to be clean).
func TwoBody(m1, m2, d float64) *core.System {
	sys := core.New(2)
	sys.EnableDynamics()
	m := m1 + m2
	sys.Mass[0], sys.Mass[1] = m1, m2
	sys.Pos[0] = vec.V3{X: -d * m2 / m}
	sys.Pos[1] = vec.V3{X: d * m1 / m}
	v := math.Sqrt(m / d) // relative circular speed, G=1
	sys.Vel[0] = vec.V3{Y: -v * m2 / m}
	sys.Vel[1] = vec.V3{Y: v * m1 / m}
	return sys
}

// isotropic returns a unit vector uniform on the sphere.
func isotropic(rng *rand.Rand) vec.V3 {
	for {
		v := vec.V3{
			X: 2*rng.Float64() - 1,
			Y: 2*rng.Float64() - 1,
			Z: 2*rng.Float64() - 1,
		}
		n2 := v.Norm2()
		if n2 > 1e-8 && n2 <= 1 {
			return v.Scale(1 / math.Sqrt(n2))
		}
	}
}

// VortexRing discretizes a thin-cored vortex ring of circulation
// gamma, ring radius R, core radius rc, centered at center with its
// axis along axis (unit vector). nTheta points around the ring and
// nCore points across the core section give nTheta*nCore particles.
// Returned strengths Alpha integrate the vorticity over each particle
// volume, so the total circulation is preserved.
func VortexRing(sys *core.System, gamma, R, rc float64, center, axis vec.V3, nTheta, nCore int, seed int64) {
	sys.EnableVortex()
	rng := rand.New(rand.NewSource(seed))
	// Orthonormal frame (e1, e2, axis).
	e1 := perpTo(axis)
	e2 := axis.Cross(e1)
	n0 := sys.Len()
	add := nTheta * nCore
	grow(sys, add)
	dGamma := gamma / float64(nTheta*nCore)
	k := n0
	for it := 0; it < nTheta; it++ {
		th := 2 * math.Pi * float64(it) / float64(nTheta)
		// Ring tangent at this angle.
		cdir := e1.Scale(math.Cos(th)).Add(e2.Scale(math.Sin(th)))
		tdir := e2.Scale(math.Cos(th)).Add(e1.Scale(-math.Sin(th)))
		for ic := 0; ic < nCore; ic++ {
			// Uniform disc sample in the core cross-section.
			rho := rc * math.Sqrt(rng.Float64())
			phi := 2 * math.Pi * rng.Float64()
			off := cdir.Scale(rho * math.Cos(phi)).Add(axis.Scale(rho * math.Sin(phi)))
			sys.Pos[k] = center.Add(cdir.Scale(R)).Add(off)
			// alpha = integral of vorticity over the particle volume:
			// total int(omega dV) = Gamma * 2*pi*R along the tangent,
			// split evenly over the particles.
			sys.Alpha[k] = tdir.Scale(dGamma * 2 * math.Pi * R)
			sys.Mass[k] = 1e-12 // vortex particles carry no gravitating mass
			sys.Work[k] = 1
			sys.ID[k] = int64(k)
			k++
		}
	}
}

// grow appends n zero bodies to sys preserving enabled fields.
func grow(sys *core.System, n int) {
	for i := 0; i < n; i++ {
		sys.Pos = append(sys.Pos, vec.V3{})
		sys.Mass = append(sys.Mass, 0)
		sys.Key = append(sys.Key, 0)
		sys.Work = append(sys.Work, 1)
		sys.ID = append(sys.ID, int64(len(sys.ID)))
		if sys.Vel != nil {
			sys.Vel = append(sys.Vel, vec.V3{})
		}
		if sys.Acc != nil {
			sys.Acc = append(sys.Acc, vec.V3{})
		}
		if sys.Pot != nil {
			sys.Pot = append(sys.Pot, 0)
		}
		if sys.Alpha != nil {
			sys.Alpha = append(sys.Alpha, vec.V3{})
		}
		if sys.H != nil {
			sys.H = append(sys.H, 0)
		}
		if sys.Rho != nil {
			sys.Rho = append(sys.Rho, 0)
		}
	}
}

// perpTo returns a unit vector perpendicular to v.
func perpTo(v vec.V3) vec.V3 {
	u := vec.V3{X: 1}
	if math.Abs(v.X) > 0.9*v.Norm() {
		u = vec.V3{Y: 1}
	}
	p := u.Sub(v.Scale(u.Dot(v) / v.Norm2()))
	return p.Scale(1 / p.Norm())
}
