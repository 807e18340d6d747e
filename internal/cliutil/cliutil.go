// Package cliutil is the drivers' shared command-line edge: one
// validator for the flags every simulation driver exposes, the
// chaos-spec parser that turns "seed=7,crash=0.001" into a
// msg.Injector, and the Harness that owns the shared observability
// flags and the run's instruments, world and reports. Factored here because the four drivers (treebench,
// cosmosim, sphsim, vortexsim) and the simserve job intake must agree
// on what a well-formed run request is -- a bad value produces a
// one-line usage error (exit 2 at the CLI, HTTP 400 at the service),
// never a panic or a hung world (-procs=0 used to divide by zero in
// the slab scatter; negative -steps silently ran nothing).
package cliutil

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/msg"
)

// Flags is the driver-shared subset of a run request. Fields a driver
// does not expose stay at their zero value and are skipped by
// Validate where that is meaningful (DTMode "", Chaos "").
type Flags struct {
	// N is the problem-size flag (-n bodies, -grid lattice, -ntheta
	// ring points -- the count the slab scatter divides by Procs).
	N int
	// Procs is the in-process rank count; the world hangs or divides
	// by zero below 1.
	Procs int
	// Steps is the timestep count; negative is always a spec error
	// (0 is a valid force-only run).
	Steps int
	// DTMode is the stepping scheme ("" = driver has no -dtmode flag).
	DTMode string
	// Eta is the block-timestep criterion scale, checked only when
	// DTMode is "block".
	Eta float64
	// EvalWorkers and Prefetch are the walk/eval pipeline knobs.
	EvalWorkers int
	Prefetch    int
	// Chaos is the fault-injection spec ("" = off).
	Chaos string
}

// Validate checks the request and parses the chaos spec. The returned
// injector is nil when Chaos is empty. The error is a single line fit
// for a usage message.
func (f Flags) Validate() (*msg.Injector, error) {
	if f.N < 1 {
		return nil, fmt.Errorf("problem size must be >= 1 (got %d)", f.N)
	}
	if f.Procs < 1 {
		return nil, fmt.Errorf("-procs must be >= 1 (got %d)", f.Procs)
	}
	if f.Steps < 0 {
		return nil, fmt.Errorf("-steps must be >= 0 (got %d)", f.Steps)
	}
	switch f.DTMode {
	case "", "uniform":
	case "block":
		if f.Eta <= 0 {
			return nil, fmt.Errorf("-eta must be > 0 with -dtmode=block (got %g)", f.Eta)
		}
	default:
		return nil, fmt.Errorf("unknown -dtmode %q (want uniform or block)", f.DTMode)
	}
	if f.EvalWorkers < 0 {
		return nil, fmt.Errorf("-evalworkers must be >= 0 (got %d)", f.EvalWorkers)
	}
	if f.Prefetch < 0 {
		return nil, fmt.Errorf("-prefetch must be >= 0 (got %d)", f.Prefetch)
	}
	if f.Chaos == "" {
		return nil, nil
	}
	inj, err := ParseChaos(f.Chaos)
	if err != nil {
		return nil, fmt.Errorf("-chaos: %v", err)
	}
	return inj, nil
}

// Fail prints prog and the validation error as one line on stderr and
// exits 2 -- the conventional usage-error code, distinct from runtime
// failure (1) and structured world abort (3).
func Fail(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(2)
}

// ParseChaos builds a fault injector from a "key=value,..." spec:
// seed (uint), crash/stall/latency/reorder (probabilities in [0,1]),
// crashphase/stallphase (phase labels gating crash/stall).
func ParseChaos(spec string) (*msg.Injector, error) {
	inj := &msg.Injector{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad chaos field %q (want key=value)", kv)
		}
		switch key {
		case "crashphase":
			inj.CrashPhase = val
			continue
		case "stallphase":
			inj.StallPhase = val
			continue
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad chaos seed %q", val)
			}
			inj.Seed = s
			continue
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("bad chaos probability %q=%q (want [0,1])", key, val)
		}
		switch key {
		case "crash":
			inj.CrashProb = p
		case "stall":
			inj.StallProb = p
		case "latency":
			inj.LatencyProb = p
		case "reorder":
			inj.ReorderProb = p
		default:
			return nil, fmt.Errorf("unknown chaos key %q", key)
		}
	}
	return inj, nil
}
