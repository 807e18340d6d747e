// Command perfbench is the repository benchmark: the treecode's time
// to solution and counted flop rate on a serial, a four-rank and a
// block-timestep run, and the simulation service's latency under an
// open-loop load. One run measures one workload for a fixed time,
// checks its outputs against direct summation and its own repetitions,
// and prints its metrics; the last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 12, "failed": 0,
//	 "metrics": {"time_to_solution_s": {"value": 3.71, "unit": "s"}, ...}}
//
// --trace 0 reports the end-to-end metrics, measured with tracing off;
// --trace 1 reports the per-layer metrics from a separate traced run.
// README.md lists every metric and what should move it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// gitSHA is stamped at build time by run.sh.
var gitSHA = "unknown"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// tiny shrinks every problem so the tests run in seconds.
	tiny bool
}

// repeater paces the repetitions of a fixed problem within
// --seconds: the first two always run, and each further one starts
// only if it fits before the deadline, judged by the length of the
// one before it, so a run does not outlast --seconds by a repetition.
type repeater struct {
	deadline, last time.Time
	started        int
}

func (o options) repeater() *repeater {
	now := time.Now()
	return &repeater{deadline: now.Add(time.Duration(o.seconds * float64(time.Second))), last: now}
}

// more reports whether to start another repetition.
func (r *repeater) more() bool {
	now := time.Now()
	took := now.Sub(r.last)
	r.last = now
	r.started++
	return r.started <= 2 || now.Add(took).Before(r.deadline)
}

// Setup samples: a repetition of a simulation workload, or a cycle
// of serve_open, is followed by setupBatches samples, each the fastest
// of setupBatch setups, and setup_s is their median. A setup takes a
// few milliseconds, so one timed alone reads the host's stalls as much
// as its own cost.
const (
	setupBatch   = 25
	setupBatches = 4
)

// quietSetup runs one setup of a simulation workload from a collected
// heap with the collector off, and returns the time f reports. After
// a collection the live heap is a few MB, so the setup's own
// allocations would start a collection cycle inside it: with the
// collector on, the fastest of 25 setups of collapse_block_np4 read
// 0.87-1.28 ms over six seeds, with it off 0.40-0.45 ms. The setup's
// allocations are still timed; collecting its garbage is not part of
// it. Starting from a collected heap also keeps the setups' garbage
// from raising the run's peak resident set.
func quietSetup(f func() time.Duration) time.Duration {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return f()
}

// setupSamples appends setupBatches samples of f to xs.
func setupSamples(xs []float64, f func() time.Duration) []float64 {
	for b := 0; b < setupBatches; b++ {
		fastest := time.Duration(math.MaxInt64)
		for i := 0; i < setupBatch; i++ {
			fastest = min(fastest, f())
		}
		xs = append(xs, fastest.Seconds())
	}
	return xs
}

// metric is one reported figure. Samples is how many measurements the
// value summarizes; Base names the measured columns a derived value
// is computed from.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Base    string  `json:"base,omitempty"`
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	gates             []gate
	endToEnd          map[string]metric
	perLayer          map[string]metric
	// ids are the run's exact identities (interaction counts, force
	// hashes): equal across runs of one commit and seed.
	ids map[string]any
	// info describes the load and sizes the run used.
	info  map[string]any
	spans *tracer
}

func newOutcome() *outcome {
	return &outcome{
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
		ids:      map[string]any{},
		info:     map[string]any{},
	}
}

func (oc *outcome) correct() bool {
	for _, g := range oc.gates {
		if !g.OK {
			return false
		}
	}
	return true
}

var workloads = map[string]func(options) (*outcome, error){
	"plummer_serial":     runPlummerSerial,
	"plummer_np4":        runPlummerNP4,
	"collapse_block_np4": runCollapseBlock,
	"serve_open":         runServeOpen,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for run records and spans")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every problem (tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	fn, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	t0, s0, _ := cpuTicks()
	oc, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	oc.info["host_steal_share"] = stealShare(t0, s0)
	return report(o, oc, stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the metric table, appends the run record, writes the
// spans and prints the result line.
func report(o options, oc *outcome, stdout, stderr io.Writer) int {
	ms := oc.endToEnd
	if o.trace {
		ms = oc.perLayer
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "# %s seed=%d trace=%v sha=%s\n", o.workload, o.seed, o.trace, gitSHA)
	for _, kv := range []struct {
		k string
		v map[string]any
	}{{"load", oc.info}, {"ids", oc.ids}} {
		if b, err := json.Marshal(kv.v); err == nil {
			fmt.Fprintf(stdout, "# %s %s\n", kv.k, b)
		}
	}
	for _, g := range oc.gates {
		fmt.Fprintf(stdout, "gate %-24s ok=%-5v %s\n", g.Name, g.OK, g.Detail)
	}
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(stdout, "%-36s %14.6g %-8s n=%-5d %s\n", n, m.Value, m.Unit, m.Samples, m.Base)
	}

	rec := map[string]any{
		"time":     time.Now().UTC().Format(time.RFC3339),
		"git_sha":  gitSHA,
		"host":     hostFingerprint(),
		"workload": o.workload,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.trace,
		"correct":  oc.correct(),
		"gates":    oc.gates,
		"ids":      oc.ids,
		"info":     oc.info,
		"metrics":  ms,
	}
	if err := appendRecord(filepath.Join(o.out, "records.jsonl"), rec); err != nil {
		fmt.Fprintln(stderr, "perfbench: run record:", err)
		return 1
	}
	if oc.spans != nil {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := oc.spans.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: oc.correct(), Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]value{}}
	if res.Correct {
		for n, m := range ms {
			res.Metrics[n] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness gates failed; no metrics reported")
		return 1
	}
	return 0
}
