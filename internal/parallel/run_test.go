package parallel

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/msg"
)

// Run owns its engine's lifetime: when the schedule ends the eval
// workers stop, so a long-lived caller (the simulation service runs
// one world per job) does not accumulate worker goroutines.
func TestRunStopsEvalWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // room for workers
	before := runtime.NumGoroutine()
	global := ic.Plummer(400, 1.0, 3)
	rc := RunConfig{
		Config: Config{
			MAC:  grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-3, Quad: true},
			Eps2: 1e-6, EvalWorkers: 2,
		},
		Steps: 1, DT: 1e-3,
	}
	if _, werr := msg.Collect(msg.NewWorld(2), func(c *msg.Comm) *Engine {
		return Run(c, global, rc)
	}); werr != nil {
		t.Fatal(werr)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: eval workers left running",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
