package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/vortex"
)

// A rank failure in the distributed run must end in the world's
// structured abort and exit code 3 -- a contained failure -- rather
// than a panic that kills the process with a stack dump. The run
// happens in a child process (this test binary re-executed), whose
// world crashes a rank on its first send.
func TestRankFailureExitsThree(t *testing.T) {
	if os.Getenv("VORTEXSIM_CRASH_CHILD") == "1" {
		h := cliutil.NewHarness("vortexsim", true)
		h.Start(cliutil.Flags{N: 24, Procs: 2, Steps: 1})
		w := h.World(&msg.Injector{Seed: 1, CrashProb: 1}, 0)
		runParallel(h, w, ic.RingPair(0.12, 8, 3), vortex.RunConfig{Sigma: 0.12, Theta: 0.5, Steps: 1, DT: 0.02})
		os.Exit(0) // not reached: the injected crash exits 3
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRankFailureExitsThree$")
	cmd.Env = append(os.Environ(), "VORTEXSIM_CRASH_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("child ended with %v, want exit status 3; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "msg: world aborted") {
		t.Fatalf("stderr does not carry the structured abort:\n%s", stderr.String())
	}
}
