package simserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/sph"
	"repro/internal/vec"
	"repro/internal/vortex"
)

func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = discardLog()
	}
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = time.Millisecond
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *Job, timeout time.Duration) State {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := j.State(); st.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after %v (state %s)", j.ID, timeout, j.State())
	return ""
}

// TestGravityJobBitwiseStandalone pins the service's correctness
// contract: a gravity job's final forces are bit-identical to the
// standalone treebench run of the same (n, np, steps, seed). Both run
// parallel.Run; the reference below writes the rank body out by hand,
// so a change to the shared body that moves a force bit fails here.
func TestGravityJobBitwiseStandalone(t *testing.T) {
	const n, np, steps = 600, 4, 2
	m := testManager(t, Config{Workers: 2})
	j, err := m.Submit(Spec{Physics: PhysicsGravity, N: n, NP: np, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st != StateCompleted {
		t.Fatalf("job ended %s: %s", st, j.Status().Error)
	}
	res := j.Result()
	if res == nil || res.ForcesHash == "" {
		t.Fatalf("completed job has no result/hash: %+v", res)
	}
	if res.Bodies != n {
		t.Fatalf("result bodies = %d, want %d", res.Bodies, n)
	}

	// Standalone reference: the rank body written out by hand.
	global := ic.Plummer(n, 1.0, 42)
	systems := make([]*core.System, np)
	w := msg.NewWorld(np)
	werr := w.RunErr(func(c *msg.Comm) {
		local := core.New(0)
		local.EnableDynamics()
		lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		e := parallel.New(c, local, parallel.Config{
			MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true},
			Bucket: 16, Eps2: 1e-6,
		})
		e.ComputeForces()
		for s := 0; s < steps; s++ {
			e.Step(1e-3)
		}
		systems[c.Rank()] = e.Sys
	})
	if werr != nil {
		t.Fatalf("reference run aborted: %v", werr)
	}
	if ref := ForcesHash(systems, false); res.ForcesHash != ref {
		t.Fatalf("service forces hash %s != standalone %s", res.ForcesHash, ref)
	}
}

// TestCrashContainment is the tentpole's isolation story: one
// crash-injected job fails with the structured world error while its
// neighbors -- running concurrently in the same process -- complete
// with identical hashes, and the manager keeps accepting work.
func TestCrashContainment(t *testing.T) {
	m := testManager(t, Config{Workers: 4})
	good := Spec{Physics: PhysicsGravity, N: 300, NP: 2, Steps: 1}
	bad := good
	bad.Chaos = "seed=7,crash=1,crashphase=walk"

	jobs := make([]*Job, 0, 9)
	for i := 0; i < 8; i++ {
		j, err := m.Submit(good)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	crasher, err := m.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}

	if st := waitTerminal(t, crasher, 30*time.Second); st != StateFailed {
		t.Fatalf("crash-injected job ended %s, want failed", st)
	}
	if e := crasher.Status().Error; !strings.Contains(e, "injected") {
		t.Fatalf("crash job error %q does not name the injected fault", e)
	}
	var hash string
	for i, j := range jobs {
		if st := waitTerminal(t, j, 30*time.Second); st != StateCompleted {
			t.Fatalf("job %d ended %s: %s", i, st, j.Status().Error)
		}
		h := j.Result().ForcesHash
		if hash == "" {
			hash = h
		} else if h != hash {
			t.Fatalf("job %d hash %s != job 0 hash %s (identical specs)", i, h, hash)
		}
	}

	// The manager survived: a fresh submission still runs to completion.
	after, err := m.Submit(good)
	if err != nil {
		t.Fatalf("submit after crash: %v", err)
	}
	if st := waitTerminal(t, after, 30*time.Second); st != StateCompleted {
		t.Fatalf("post-crash job ended %s", st)
	}
	if h := after.Result().ForcesHash; h != hash {
		t.Fatalf("post-crash hash %s != pre-crash %s", h, hash)
	}
}

// TestSPHAndVortexJobs exercises the other two physics end to end.
func TestSPHAndVortexJobs(t *testing.T) {
	m := testManager(t, Config{Workers: 2})
	specs := []Spec{
		{Physics: PhysicsSPH, N: 200, NP: 2, Steps: 1},
		{Physics: PhysicsVortex, N: 12, NP: 2, Steps: 2},
	}
	for _, sp := range specs {
		j, err := m.Submit(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Physics, err)
		}
		if st := waitTerminal(t, j, 60*time.Second); st != StateCompleted {
			t.Fatalf("%s job ended %s: %s", sp.Physics, st, j.Status().Error)
		}
		res := j.Result()
		if res.ForcesHash == "" || res.Interactions == 0 {
			t.Fatalf("%s result incomplete: %+v", sp.Physics, res)
		}
		if sp.Physics == PhysicsVortex && res.Bodies != 2*sp.N*vortexCore {
			t.Fatalf("vortex bodies = %d, want %d", res.Bodies, 2*sp.N*vortexCore)
		}
	}
}

// TestSPHAndVortexJobsBitwiseStandalone extends the bitwise contract
// to the other two physics: an SPH job (with sphsim's IC seed 99) and
// a vortex job hash equal to the standalone sphsim / vortexsim
// distributed runs, written out below by hand rather than through
// sph.Run and vortex.Run. The pipelined variants (evalworkers,
// prefetch) must hash the same, since the walk/eval pipeline never
// changes results.
func TestSPHAndVortexJobsBitwiseStandalone(t *testing.T) {
	const np = 2
	const sphN, sphSteps, sphDT = 200, 2, 4e-3
	const ringN, vortexSteps, vortexDT = 10, 2, 0.02

	sphRef := func() string {
		systems := make([]*core.System, np)
		werr := msg.NewWorld(np).RunErr(func(c *msg.Comm) {
			global := ic.UniformSphere(sphN, 1.0, 99)
			global.EnableSPH()
			for i := range global.H {
				global.H[i] = 0.1
			}
			lo, hi := c.Rank()*sphN/np, (c.Rank()+1)*sphN/np
			local := core.New(0)
			local.EnableDynamics()
			local.EnableSPH()
			for i := lo; i < hi; i++ {
				local.AppendFrom(global, i)
			}
			e := sph.NewParallel(c, local, sph.ParallelConfig{
				Params:  sph.Params{EOS: sph.Isothermal, CS: 0.8, AlphaVisc: 1, BetaVisc: 2},
				Gravity: true, Eps2: 1e-4,
			})
			e.Eval()
			for s := 0; s < sphSteps; s++ {
				e.Step(sphDT)
			}
			systems[c.Rank()] = e.Sys
		})
		if werr != nil {
			t.Fatalf("sph reference aborted: %v", werr)
		}
		return ForcesHash(systems, false)
	}()

	vortexRef := func() string {
		global := core.New(0)
		global.EnableDynamics()
		global.EnableVortex()
		ic.VortexRing(global, 1.0, 1.0, 0.12, vec.V3{X: -0.75}, vec.V3{Z: 1}, ringN, 4, 41)
		ic.VortexRing(global, 1.0, 1.0, 0.12, vec.V3{X: 0.75}, vec.V3{Z: 1}, ringN, 4, 43)
		n := global.Len()
		systems := make([]*core.System, np)
		werr := msg.NewWorld(np).RunErr(func(c *msg.Comm) {
			lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
			local := core.New(0)
			local.EnableDynamics()
			local.EnableVortex()
			for i := lo; i < hi; i++ {
				local.AppendFrom(global, i)
			}
			e := vortex.NewParallel(c, local, 0.12, 0.5)
			for s := 0; s < vortexSteps; s++ {
				e.Step(vortexDT)
			}
			systems[c.Rank()] = e.Sys
		})
		if werr != nil {
			t.Fatalf("vortex reference aborted: %v", werr)
		}
		return ForcesHash(systems, true)
	}()

	m := testManager(t, Config{Workers: 2})
	cases := []struct {
		sp  Spec
		ref string
	}{
		{Spec{Physics: PhysicsSPH, N: sphN, NP: np, Steps: sphSteps, Seed: 99}, sphRef},
		{Spec{Physics: PhysicsSPH, N: sphN, NP: np, Steps: sphSteps, Seed: 99, EvalWorkers: 2, Prefetch: 1}, sphRef},
		{Spec{Physics: PhysicsVortex, N: ringN, NP: np, Steps: vortexSteps}, vortexRef},
		{Spec{Physics: PhysicsVortex, N: ringN, NP: np, Steps: vortexSteps, EvalWorkers: 2, Prefetch: 1}, vortexRef},
	}
	for _, tc := range cases {
		j, err := m.Submit(tc.sp)
		if err != nil {
			t.Fatalf("%+v: %v", tc.sp, err)
		}
		if st := waitTerminal(t, j, 60*time.Second); st != StateCompleted {
			t.Fatalf("%+v ended %s: %s", tc.sp, st, j.Status().Error)
		}
		if got := j.Result().ForcesHash; got != tc.ref {
			t.Errorf("%+v: service forces hash %s != standalone %s", tc.sp, got, tc.ref)
		}
	}
}

// TestCancelQueued cancels a job the single worker has not reached:
// it must go terminal immediately and never run.
func TestCancelQueued(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	blocker, err := m.Submit(Spec{Physics: PhysicsGravity, N: 4000, NP: 2, Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Spec{Physics: PhysicsGravity, N: 300, NP: 2, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued job state %s after cancel, want cancelled", st)
	}
	if st := waitTerminal(t, blocker, 60*time.Second); st != StateCompleted {
		t.Fatalf("blocker ended %s", st)
	}
	if queued.Result() != nil {
		t.Fatal("cancelled job has a result; it ran anyway")
	}
	// Double-cancel reports the terminal state.
	if err := m.Cancel(queued.ID); err == nil {
		t.Fatal("cancelling a terminal job succeeded")
	}
}

// TestCancelRunning aborts a running world and expects a prompt
// cancelled state, not failed.
func TestCancelRunning(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	j, err := m.Submit(Spec{Physics: PhysicsGravity, N: 20000, NP: 4, Steps: 50})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", j.State())
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", st)
	}
}

// TestSubmitRejections covers the 4xx paths: malformed specs and
// queue overload.
func TestSubmitRejections(t *testing.T) {
	m := testManager(t, Config{Workers: 1, QueueDepth: 2, MaxBodies: 10000, MaxNP: 8})
	cases := []Spec{
		{Physics: "magneto", N: 100, NP: 2, Steps: 1},
		{Physics: PhysicsGravity, N: 0, NP: 2, Steps: 1},
		{Physics: PhysicsGravity, N: 100, NP: 0, Steps: 1},
		{Physics: PhysicsGravity, N: 100, NP: 2, Steps: -1},
		{Physics: PhysicsGravity, N: 100, NP: 2, Steps: 1, DTMode: "warp"},
		{Physics: PhysicsGravity, N: 100, NP: 2, Steps: 1, Chaos: "crash=9"},
		{Physics: PhysicsGravity, N: 100000, NP: 2, Steps: 1}, // over MaxBodies
		{Physics: PhysicsGravity, N: 100, NP: 16, Steps: 1},   // over MaxNP
		{Physics: PhysicsVortex, N: 10, NP: 2, Steps: 1, DTMode: "block"},
		{Physics: PhysicsSPH, N: 100, NP: 2, Steps: 1, IC: ICPlummer},
	}
	for i, sp := range cases {
		if _, err := m.Submit(sp); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("case %d (%+v): err = %v, want ErrBadSpec", i, sp, err)
		}
	}
	if got := m.Registry().Counter(MetricRejected).Value(); got != uint64(len(cases)) {
		t.Fatalf("rejected counter = %d, want %d", got, len(cases))
	}

	// Overload: fill the 2-deep queue past capacity with slow jobs.
	long := Spec{Physics: PhysicsGravity, N: 5000, NP: 2, Steps: 5}
	var overloaded bool
	for i := 0; i < 8; i++ {
		if _, err := m.Submit(long); errors.Is(err, ErrOverloaded) {
			overloaded = true
			break
		}
	}
	if !overloaded {
		t.Fatal("queue never rejected with ErrOverloaded")
	}
}

// TestBatcher unit-tests the admission window: size-triggered flush,
// time-triggered flush, and close flushing stragglers.
func TestBatcher(t *testing.T) {
	var mu sync.Mutex
	var batches [][]*Job
	flush := func(b []*Job) {
		mu.Lock()
		batches = append(batches, b)
		mu.Unlock()
	}
	b := newBatcher(20*time.Millisecond, 3, flush)

	// Size trigger: the third submit flushes immediately.
	for i := 0; i < 3; i++ {
		if !b.submit(&Job{}) {
			t.Fatal("submit refused before close")
		}
	}
	mu.Lock()
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("size trigger: batches = %v", batchSizes(batches))
	}
	mu.Unlock()

	// Time trigger: one pending job flushes after the window.
	b.submit(&Job{})
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		n := len(batches)
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("window flush never fired")
		}
		time.Sleep(time.Millisecond)
	}

	// Close flushes stragglers and refuses new work.
	b.submit(&Job{})
	b.close()
	mu.Lock()
	if len(batches) != 3 || len(batches[2]) != 1 {
		t.Fatalf("close flush: batches = %v", batchSizes(batches))
	}
	mu.Unlock()
	if b.submit(&Job{}) {
		t.Fatal("submit accepted after close")
	}
}

func batchSizes(batches [][]*Job) []int {
	out := make([]int, len(batches))
	for i, b := range batches {
		out[i] = len(b)
	}
	return out
}

// TestHTTPAPI drives the full edge through httptest: submit, status,
// per-job telemetry mount, cancel, healthz, metrics, and the error
// statuses.
func TestHTTPAPI(t *testing.T) {
	m := testManager(t, Config{Workers: 2})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	// Submit a small gravity job.
	resp, body := post(`{"physics":"gravity","n":300,"np":2,"steps":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Spec.Seed != 42 {
		t.Fatalf("submit reply %+v: want id and defaulted seed", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Bad bodies are 400s, not crashes.
	for _, bad := range []string{`{`, `{"physics":"magneto","n":1,"np":1}`, `{"bogus":1}`} {
		if resp, b := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q = %d: %s", bad, resp.StatusCode, b)
		}
	}

	// Wait for completion via the status route.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", st.ID, r.StatusCode)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != StateCompleted || st.Result == nil || st.Result.ForcesHash == "" {
		t.Fatalf("terminal status %+v", st)
	}

	// The per-job telemetry mount answers with the job's own series.
	r, err := http.Get(srv.URL + "/jobs/" + st.ID + "/series?n=4")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"step"`)) {
		t.Fatalf("GET /jobs/{id}/series = %d: %s", r.StatusCode, b)
	}

	// Unknown IDs 404 on every jobs route.
	for _, path := range []string{"/jobs/nope", "/jobs/nope/series"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}

	// DELETE on a terminal job is a 409; listing and health stay up.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE terminal job = %d, want 409", r.StatusCode)
	}

	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"completed"`)) {
		t.Fatalf("GET /healthz = %d: %s", r.StatusCode, b)
	}

	r, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(MetricCompleted)) {
		t.Fatalf("GET /metrics = %d: %s", r.StatusCode, b)
	}
}
