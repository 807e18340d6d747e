package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ic"
	"repro/internal/simserve"
)

// serveSize is the load of serve_open: small gravity jobs whose seeds
// cycle over a few values, submitted in open-loop segments at a fixed
// arrival rate that alternate with closed-loop batches, each with a
// fixed number of jobs in flight. job_p50_ms is the lower quartile of
// the segments' median latencies, so there should be enough segments
// that a slow stretch of the host leaves a quarter of them untouched.
type serveSize struct {
	n, np, steps int
	// seeds is how many job seeds the load cycles over. A job's cost
	// depends on its seed beyond its flops: with four job seeds, one
	// run seed's closed-loop batch took 1.3 times as long as
	// another's, at equal flops, on repeated runs. Many seeds make
	// each run's mixture cost about the same.
	seeds     int
	rate      float64 // open-loop arrivals per second
	openShare float64 // share of --seconds spent in the open loop
	inflight  int     // closed-loop jobs in flight
	batch     int     // closed-loop jobs per timed batch
	// closedRate sizes the closed loop, and so the number of cycles:
	// as many batches as take the rest of --seconds at this many
	// jobs/s. Fixing the job count, rather than stopping at a
	// deadline, keeps the run's job count, and so the service's
	// retained memory, the same on a slow host.
	closedRate float64
}

func serveSizes(tiny bool) serveSize {
	if tiny {
		return serveSize{n: 200, np: 2, steps: 1, seeds: 2, rate: 40, openShare: 0.5,
			inflight: 4, batch: 8, closedRate: 40}
	}
	return serveSize{n: 500, np: 2, steps: 1, seeds: 16, rate: 30, openShare: 0.7,
		inflight: 8, batch: 80, closedRate: 90}
}

// Job specs mirror simserve's gravity defaults: the standalone
// reference below must configure its engines the same way.
const (
	serveDT          = 1e-3
	serveDriftBudget = 1e-4
)

func (sz serveSize) spec(seed int64) simserve.Spec {
	return simserve.Spec{Physics: simserve.PhysicsGravity, N: sz.n, NP: sz.np, Steps: sz.steps, DT: serveDT, Seed: seed}
}

// jobSeeds derives the cycled job seeds from the benchmark seed.
func jobSeeds(seed int64, k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = seed*1000 + int64(i) + 1
	}
	return out
}

// server is one simserve Manager behind its HTTP handler on a
// loopback listener, and the client that loads it.
type server struct {
	m      *simserve.Manager
	srv    *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

func startServer(clients int) (*server, error) {
	m := simserve.New(simserve.Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	s := &server{
		m:      m,
		srv:    &http.Server{Handler: simserve.Handler(m)},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
			Timeout:   60 * time.Second,
		},
	}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// close stops the listener and its connections, waits for Serve to
// return, then drains the Manager.
func (s *server) close() {
	s.srv.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.m.Close()
}

// setupTrial starts a server and closes it again, returning the time
// the start took.
func setupTrial(clients int) (time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(clients)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	s.close()
	return d, nil
}

var errRejected = errors.New("rejected with 429")

// submit posts a spec and returns the accepted job's ID.
func (s *server) submit(sp simserve.Spec) (string, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var st simserve.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return "", fmt.Errorf("decode submit reply: %w", err)
		}
		return st.ID, nil
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return "", errRejected
	default:
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
}

// statuses fetches every job's status through GET /jobs.
func (s *server) statuses() (map[string]simserve.Status, error) {
	resp, err := s.client.Get(s.url + "/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var list []simserve.Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("decode job list: %w", err)
	}
	out := make(map[string]simserve.Status, len(list))
	for _, st := range list {
		out[st.ID] = st
	}
	return out, nil
}

// waitTerminal polls the job's state in process until it is terminal.
// The poll interval bounds how late a completion is noticed.
func (s *server) waitTerminal(id string, poll time.Duration, limit time.Time) error {
	for {
		j, ok := s.m.Get(id)
		if !ok {
			return fmt.Errorf("job %s vanished", id)
		}
		if j.State().Terminal() {
			return nil
		}
		if time.Now().After(limit) {
			return fmt.Errorf("job %s not finished in time", id)
		}
		time.Sleep(poll)
	}
}

// jobRec is one submission as the load generator saw it.
type jobRec struct {
	seq         int
	seed        int64
	due         time.Time // when the schedule wanted it sent
	sent, acked time.Time
	id          string
	err         error
	// span is the job's root span in a traced run; its interval is
	// filled in from the service's timestamps once the job is done.
	span openSpan
}

// send submits the record's job, recording the submit call as a span
// when tr is non-nil.
func (r *jobRec) send(s *server, sz serveSize, tr *tracer) {
	if tr != nil {
		r.span = tr.begin("job", 0, r.seq, -1)
	}
	sp := tr.begin("simserve.Handler POST /jobs", r.span.id, r.seq, -1)
	r.sent = time.Now()
	r.id, r.err = s.submit(sz.spec(r.seed))
	r.acked = time.Now()
	tr.end(sp)
}

// openLoop submits n jobs at the given rate from `clients` senders,
// each taking the next due job, whatever the state of earlier ones.
// Job first+i gets sequence number first+i and the seed at that place
// in the cycle.
func openLoop(s *server, sz serveSize, seeds []int64, first, n, clients int, tr *tracer) []jobRec {
	recs := make([]jobRec, n)
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := &recs[i]
				r.seq, r.seed = first+i, seeds[(first+i)%len(seeds)]
				r.due = start.Add(time.Duration(float64(i) / sz.rate * float64(time.Second)))
				time.Sleep(time.Until(r.due))
				r.send(s, sz, tr)
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedBatch runs one batch of jobs with sz.inflight clients, each
// of which submits, waits for its job to finish, then submits the
// next. Submissions share the HTTP client's connections. It returns
// the records and the batch wall time.
func closedBatch(s *server, sz serveSize, seeds []int64, first int, tr *tracer) ([]jobRec, time.Duration) {
	recs := make([]jobRec, sz.batch)
	t0 := time.Now()
	limit := t0.Add(60 * time.Second)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < sz.inflight; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					return
				}
				r := &recs[i]
				r.seq, r.seed = first+i, seeds[i%len(seeds)]
				r.due = time.Now()
				r.send(s, sz, tr)
				if r.err == nil {
					r.err = s.waitTerminal(r.id, 2*time.Millisecond, limit)
				}
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(t0)
}

// reference runs each job spec standalone on parallel.Engine, the
// way simserve's gravity rank body does, and returns the forces hash
// per seed, the final-state force errors and the energy drift.
func serveReference(sz serveSize, seeds []int64) (map[int64]string, []float64, []float64, error) {
	hashes := map[int64]string{}
	var errs, drifts []float64
	for _, seed := range seeds {
		sp := parSpec{global: ic.Plummer(sz.n, 1.0, seed), np: sz.np, steps: sz.steps, dt: serveDT}
		r, err := solve(sp, nil, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		hashes[seed] = r.hash
		e, err := forceErrors(r.systems(), sz.n, sampleSinks(sz.n, sz.n, seed), parEps2)
		if err != nil {
			return nil, nil, nil, err
		}
		errs = append(errs, e...)
		drifts = append(drifts, math.Abs((r.e1-r.e0)/r.e0))
	}
	return hashes, errs, drifts, nil
}

func runServeOpen(o options) (*outcome, error) {
	sz := serveSizes(o.tiny)
	clients := runtime.NumCPU()
	seeds := jobSeeds(o.seed, sz.seeds)
	oc := newOutcome()
	oc.info["job"] = sz.spec(seeds[0])
	oc.info["seeds"] = seeds
	oc.info["rate_per_s"] = sz.rate
	oc.info["http_connections"] = clients
	oc.info["closed_inflight"] = sz.inflight
	oc.info["closed_batch"] = sz.batch

	refHash, errs, drifts, err := serveReference(sz, seeds)
	if err != nil {
		return nil, err
	}
	oc.ids["forces_hash"] = refHash

	t0 := time.Now()
	s, err := startServer(clients)
	if err != nil {
		return nil, err
	}
	oc.info["serve_setup_s"] = time.Since(t0).Seconds()
	defer s.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
		oc.spans = tr
	}
	// Each cycle is an open-loop segment, drained, then a timed
	// closed-loop batch, so both phases sample the host across the
	// whole run rather than one stretch of it. A traced run follows
	// each untraced batch with a traced one, so the tracing overhead
	// is measured on the same server.
	openSecs := o.seconds * sz.openShare
	nOpen := int(math.Max(1, math.Round(sz.rate*openSecs)))
	cycles := int(math.Max(2, math.Round((o.seconds-openSecs)*sz.closedRate/float64(sz.batch))))
	var open, closed, tracedClosed []jobRec
	var segStart []int // index in open of each cycle's first job
	var batchTimes, tracedTimes, setups []float64
	var setupErr error
	setupTime := func() time.Duration {
		d, err := setupTrial(clients)
		if err != nil && setupErr == nil {
			setupErr = err
		}
		return d
	}
	for c := 1; c <= cycles; c++ {
		segStart = append(segStart, len(open))
		seg := openLoop(s, sz, seeds, len(open), nOpen*c/cycles-len(open), clients, tr)
		for _, r := range seg {
			if r.err == nil {
				if err := s.waitTerminal(r.id, 5*time.Millisecond, time.Now().Add(60*time.Second)); err != nil {
					return nil, err
				}
			}
		}
		open = append(open, seg...)
		recs, d := closedBatch(s, sz, seeds, nOpen+len(closed), nil)
		closed = append(closed, recs...)
		batchTimes = append(batchTimes, d.Seconds())
		if o.trace {
			recs, d := closedBatch(s, sz, seeds, nOpen+len(closed), tr)
			closed = append(closed, recs...)
			tracedClosed = append(tracedClosed, recs...)
			tracedTimes = append(tracedTimes, d.Seconds())
		}
		if setups = setupSamples(setups, setupTime); setupErr != nil {
			return nil, setupErr
		}
	}
	peak := peakRSSMB()

	st, err := s.statuses()
	if err != nil {
		return nil, err
	}
	all := append(append([]jobRec(nil), open...), closed...)
	var rejected, failedJobs, wrongHash int
	for _, r := range all {
		switch {
		case errors.Is(r.err, errRejected):
			rejected++
		case r.err != nil:
			failedJobs++
		case st[r.id].State != simserve.StateCompleted || st[r.id].Result == nil:
			failedJobs++
		case st[r.id].Result.ForcesHash != refHash[r.seed]:
			wrongHash++
		}
	}
	oc.attempted = len(all)
	oc.failed = rejected + failedJobs + wrongHash
	oc.info["rejected"], oc.info["failed_jobs"], oc.info["wrong_hash"] = rejected, failedJobs, wrongHash
	oc.gates = append(oc.gates, forceGates(errs)...)
	oc.gates = append(oc.gates, driftGate(maxOf(drifts), serveDriftBudget))
	oc.gates = append(oc.gates, hashGate(all, st, refHash), shedGate(rejected, failedJobs))

	// Open-loop latency, from each job's due time to its terminal
	// state as the service reports it, and its median per segment.
	var lat, late, segP50 []float64
	for k, lo := range segStart {
		hi := len(open)
		if k+1 < len(segStart) {
			hi = segStart[k+1]
		}
		var seg []float64
		for _, r := range open[lo:hi] {
			late = append(late, r.sent.Sub(r.due).Seconds()*1e3)
			if j, ok := st[r.id]; ok && r.err == nil && j.Finished != nil {
				seg = append(seg, j.Finished.Sub(r.due).Seconds()*1e3)
			}
		}
		if len(seg) > 0 {
			segP50 = append(segP50, median(seg))
			lat = append(lat, seg...)
		}
	}
	oc.info["gen_late_max_ms"] = maxOf(late)
	oc.info["open_jobs"], oc.info["cycles"] = nOpen, cycles
	if len(lat) == 0 {
		return nil, fmt.Errorf("no open-loop job completed")
	}
	oc.info["open_p50_ms_by_segment"] = segP50
	oc.info["open_p50_ms_pooled"] = median(lat)
	var batchFlops uint64
	for _, r := range closed[:sz.batch] {
		if res := st[r.id].Result; res != nil {
			batchFlops += res.Flops
		}
	}
	oc.info["batch_s"] = batchTimes
	medBatch := median(batchTimes)
	oc.e2e("time_to_solution_s", medBatch, len(batchTimes), fmt.Sprintf("closed-loop batch of %d jobs, %d in flight, median", sz.batch, sz.inflight))
	oc.e2e("gflops", float64(batchFlops)/medBatch/1e9, len(batchTimes), fmt.Sprintf("batch flops %d / time_to_solution_s", batchFlops))
	oc.e2e("setup_s", median(setups), len(setups),
		fmt.Sprintf("simserve.New + listener + first /healthz reply; median of samples, each the fastest of %d", setupBatch))
	oc.e2e("peak_rss_mb", peak, 1, "getrusage maxrss")
	oc.e2e("job_p50_ms", quantile(segP50, 0.25), len(lat),
		fmt.Sprintf("open loop at %g jobs/s, due time to terminal; lower quartile of the medians of %d segments", sz.rate, len(segP50)))
	oc.info["jobs_per_s"] = float64(sz.batch) / medBatch // the closed loop's throughput: batch / time_to_solution_s

	if o.trace {
		oc.zeroLayers()
		traceLifecycles(tr, open, st)
		traceLifecycles(tr, tracedClosed, st)
		serveLayers(oc, open, st, s.m)
		oc.layer("grav.force_err_p99", quantile(errs, 0.99), len(errs), "standalone run of each job spec, final state")
		oc.layer("integrate.energy_drift", median(drifts), len(drifts), "standalone run of each job spec, median over seeds")
		oc.layer("simserve.job_p99_ms", quantile(lat, 0.99), len(lat), fmt.Sprintf("traced open loop at %g jobs/s, due time to terminal", sz.rate))
		oc.layer("load.gen_late_max_ms", maxOf(late), len(late), "latest open-loop send after its due time")
		oc.layer("trace.overhead_s", median(tracedTimes)-medBatch, len(tracedTimes),
			"traced minus untraced closed-loop batch time, medians")
	}
	return oc, nil
}

// hashGate checks every completed job's forces hash against the
// standalone run of its spec.
func hashGate(recs []jobRec, st map[string]simserve.Status, ref map[int64]string) gate {
	n := 0
	for _, r := range recs {
		j, ok := st[r.id]
		if r.err != nil || !ok || j.Result == nil {
			continue
		}
		if j.Result.ForcesHash != ref[r.seed] {
			return check("job_forces_hash", false, "job %s seed %d hash %s, standalone %s", r.id, r.seed, j.Result.ForcesHash, ref[r.seed])
		}
		n++
	}
	return check("job_forces_hash", n > 0, "%d completed jobs match the standalone hash of their seed", n)
}

// shedGate checks that the service neither rejected nor failed a job.
// At the workload's fixed rate a healthy service sheds nothing, and a
// shed job has no latency sample: without the gate, shedding load
// would improve the reported latency.
func shedGate(rejected, failed int) gate {
	return check("no_shed", rejected+failed == 0, "%d rejected with 429, %d failed", rejected, failed)
}

// traceLifecycles completes the spans of traced jobs from the
// service's timestamps: the job's root span from its due time to its
// terminal state, and the queue and run intervals under it.
func traceLifecycles(tr *tracer, recs []jobRec, st map[string]simserve.Status) {
	for _, r := range recs {
		root := r.span
		j, ok := st[r.id]
		end := r.acked
		if ok && j.Finished != nil {
			end = *j.Finished
		}
		tr.add(root, r.due, end)
		if ok && j.Started != nil {
			tr.add(tr.begin("simserve.queue", root.id, r.seq, -1), j.Submitted, *j.Started)
			if j.Finished != nil {
				tr.add(tr.begin("simserve.run", root.id, r.seq, -1), *j.Started, *j.Finished)
			}
		}
	}
}

// serveLayers reports the service's per-job breakdown over the
// open-loop jobs.
func serveLayers(oc *outcome, open []jobRec, st map[string]simserve.Status, m *simserve.Manager) {
	var submit, queue, run, world, over []float64
	for _, r := range open {
		j, ok := st[r.id]
		if r.err != nil || !ok || j.Started == nil || j.Finished == nil || j.Result == nil {
			continue
		}
		submit = append(submit, r.acked.Sub(r.sent).Seconds()*1e3)
		queue = append(queue, j.Started.Sub(j.Submitted).Seconds()*1e3)
		runMs := j.Finished.Sub(*j.Started).Seconds() * 1e3
		run = append(run, runMs)
		world = append(world, j.Result.WallMs)
		over = append(over, runMs-j.Result.WallMs)
	}
	for _, q := range []struct {
		name string
		xs   []float64
		base string
	}{
		{"submit_ms", submit, "POST /jobs round trip seen by the client"},
		{"queue_ms", queue, "Status.Started - Status.Submitted"},
		{"run_ms", run, "Status.Finished - Status.Started"},
		{"world_ms", world, "Result.WallMs"},
		{"overhead_ms", over, "run_ms - world_ms per job"},
	} {
		oc.layer("simserve."+q.name+"_p50", median(q.xs), len(q.xs), q.base+", open loop")
		oc.layer("simserve."+q.name+"_p99", quantile(q.xs, 0.99), len(q.xs), q.base+", open loop")
	}
	snaps := m.Registry().Snapshots()
	b := snaps[simserve.MetricBatchJobs]
	oc.layer("simserve.batch_jobs_mean", ratio(float64(b.Sum), float64(b.Count)), int(b.Count), "simserve_batch_jobs histogram sum / count, whole run")
	oc.layer("simserve.rejected", float64(m.Registry().Counters()[simserve.MetricRejected]), 1, "simserve_jobs_rejected counter, whole run")
}
