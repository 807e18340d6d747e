package cliutil

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/hotengine"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Harness is the observability edge the simulation drivers share: the
// -trace -metrics -cpuprofile -memprofile -http -noprogress
// -evalworkers -prefetch flags, the instruments they switch on, the
// world the run executes in, and the reports written at the end. Each
// driver keeps only its physics flags and the science it prints.
//
// Use: NewHarness before flag.Parse; Start after it; World, then Run
// for each distributed run; Report after the instrumented one; Close
// (deferred) at exit. Every failure exits: 2 for a bad flag, 3 for a
// structured world abort, 1 for anything else.
type Harness struct {
	prog     string
	serialOK bool // the driver also runs serially (-procs 1), uninstrumented
	Log      *slog.Logger

	// EvalWorkers and Prefetch are the walk/eval pipeline flags.
	EvalWorkers, Prefetch int

	traceOut, metricsOut, cpuProfile, memProfile, httpAddr string
	noProgress                                             time.Duration

	procs   int
	inj     *msg.Injector
	run     *trace.Run
	reg     *metrics.Registry
	in      hotengine.Instruments
	closers []func()
}

// NewHarness registers the shared flags on the command line for
// driver prog. serialOK marks a driver whose -procs 1 path runs a
// serial engine, which the instruments do not cover.
func NewHarness(prog string, serialOK bool) *Harness {
	h := &Harness{prog: prog, serialOK: serialOK, Log: telemetry.NewLogger(os.Stderr, prog)}
	dist := ""
	if serialOK {
		dist = " (needs -procs > 1)"
	}
	flag.StringVar(&h.traceOut, "trace", "", "write a Chrome trace_event JSON timeline, for chrome://tracing or Perfetto"+dist)
	flag.StringVar(&h.metricsOut, "metrics", "", "write a machine-readable RunReport JSON, rendered by cmd/perfreport"+dist)
	flag.StringVar(&h.cpuProfile, "cpuprofile", "", "write a pprof CPU profile")
	flag.StringVar(&h.memProfile, "memprofile", "", "write a pprof heap profile at exit")
	flag.StringVar(&h.httpAddr, "http", "", "serve live telemetry (/metrics /series /health /report /debug/pprof) on this address (:0 picks a port)"+dist)
	flag.DurationVar(&h.noProgress, "noprogress", 3*time.Second, "telemetry no-progress health threshold (with -http; 0 = off)")
	flag.IntVar(&h.EvalWorkers, "evalworkers", 0, "walk/eval pipeline workers: completed groups evaluate under the batched-message collectives (0 = inline historical schedule; results identical either way)"+dist)
	flag.IntVar(&h.Prefetch, "prefetch", 0, "serve-side prefetch depth: replies piggyback the subtree below each requested cell, cutting request rounds (0 = off)"+dist)
	return h
}

// fatal logs msg and exits 1.
func (h *Harness) fatal(msg string, args ...any) {
	h.Log.Error(msg, args...)
	os.Exit(1)
}

// Start validates the run request f (its pipeline knobs come from the
// harness flags; exit 2 on a bad value) and switches on what the flags
// ask for: the CPU profile, the trace, the metrics registry with its
// stall histogram, and the telemetry sampler with its endpoint. It
// returns the parsed -chaos injector (nil when off).
func (h *Harness) Start(f Flags) *msg.Injector {
	f.EvalWorkers, f.Prefetch = h.EvalWorkers, h.Prefetch
	inj, err := f.Validate()
	if err != nil {
		Fail(h.prog, err)
	}
	h.procs = f.Procs
	instrumented := h.traceOut != "" || h.metricsOut != "" || h.httpAddr != ""
	if h.serialOK && instrumented && f.Procs <= 1 {
		h.fatal("-trace/-metrics/-http instrument the distributed engine; use -procs > 1")
	}
	if h.cpuProfile != "" {
		stop, err := trace.StartCPUProfile(h.cpuProfile)
		if err != nil {
			h.fatal("cpuprofile failed", "err", err)
		}
		h.closers = append(h.closers, stop)
	}
	if h.traceOut != "" || h.httpAddr != "" {
		h.run = trace.NewRun(f.Procs)
	}
	if instrumented {
		h.reg = metrics.NewRegistry()
	}
	h.in = hotengine.Instruments{Trace: h.run, Stalls: h.reg.Histogram(metrics.StallHistogram)}
	if h.httpAddr != "" {
		mon := telemetry.DefaultMonitors()
		mon.NoProgress = h.noProgress
		mon.Log = h.Log
		tel := telemetry.NewSampler(telemetry.Config{
			NP: f.Procs, Registry: h.reg, Trace: h.run, Monitors: mon, Command: h.prog,
		})
		h.closers = append(h.closers, tel.Close)
		ep, err := telemetry.Serve(h.httpAddr, tel, h.Log)
		if err != nil {
			h.fatal("telemetry endpoint failed", "err", err)
		}
		h.closers = append(h.closers, ep.Close)
		h.in.Telemetry = tel
		// The smoke test (scripts/telemetry_smoke.sh) greps this line to
		// discover the :0-assigned port.
		fmt.Printf("telemetry: listening on %s\n", ep.Addr)
	}
	return inj
}

// Instruments returns the observers every rank of the instrumented
// run attaches; all nil when no instrument flag is set.
func (h *Harness) Instruments() hotengine.Instruments { return h.in }

// World returns the instrumented run's world: traced when -trace or
// -http is on, fault-injected by inj (nil = none), and watched by a
// stall watchdog after watchdog of silence (0 = off; 5s when inj is
// set, so an injected stall cannot hang the run).
func (h *Harness) World(inj *msg.Injector, watchdog time.Duration) *msg.World {
	w := msg.NewWorld(h.procs)
	w.SetTrace(h.run)
	if inj != nil {
		w.SetInjector(inj)
		h.inj = inj
		if watchdog == 0 {
			watchdog = 5 * time.Second
		}
	}
	if watchdog > 0 {
		w.StartWatchdog(msg.WatchdogConfig{Quiet: watchdog, Stacks: true, Log: h.Log})
	}
	return w
}

// Run executes body on every rank of w and returns the per-rank
// results with the wall time in seconds. A structured world abort is
// logged and exits 3, which tells a contained failure from a crash
// (panic) or a hang (an external timeout).
func Run[T any](h *Harness, w *msg.World, body func(*msg.Comm) T) ([]T, float64) {
	start := time.Now()
	out, werr := msg.Collect(w, body)
	wall := time.Since(start).Seconds()
	if h.inj != nil {
		st := h.inj.Stats()
		h.Log.Info("chaos: injection summary",
			"delays", st.Delays, "reorders", st.Reorders, "stalls", st.Stalls, "crashes", st.Crashes)
		if h.reg != nil {
			h.reg.Counter(metrics.ChaosDelays).Add(st.Delays)
			h.reg.Counter(metrics.ChaosReorders).Add(st.Reorders)
			h.reg.Counter(metrics.ChaosStalls).Add(st.Stalls)
			h.reg.Counter(metrics.ChaosCrashes).Add(st.Crashes)
		}
	}
	if werr != nil {
		h.Log.Error("world aborted", "err", werr)
		os.Exit(3)
	}
	return out, wall
}

// Report writes what -metrics and -trace ask for about the
// instrumented run: the RunReport of its bodies, wall time, per-rank
// inputs and world traffic, and the Chrome trace (warning when the
// trace rings dropped events).
func (h *Harness) Report(bodies int, wall float64, w *msg.World, inputs []metrics.RankInput) {
	if h.metricsOut != "" {
		rep := metrics.BuildReport(h.prog, bodies, wall, inputs, w, h.reg)
		rep.TraceDropped = h.run.Dropped()
		if err := rep.WriteFile(h.metricsOut); err != nil {
			h.fatal("metrics write failed", "err", err)
		}
		fmt.Printf("wrote RunReport %s (render: go run ./cmd/perfreport %s)\n", h.metricsOut, h.metricsOut)
	}
	if h.traceOut != "" {
		if err := h.run.WriteChromeFile(h.traceOut); err != nil {
			h.fatal("trace write failed", "err", err)
		}
		if d := h.run.Dropped(); d > 0 {
			h.Log.Warn("trace ring dropped events; exported timeline is incomplete",
				"dropped", d, "path", h.traceOut)
		}
		fmt.Printf("wrote trace %s (%d events dropped); open in chrome://tracing or ui.perfetto.dev\n",
			h.traceOut, h.run.Dropped())
	}
}

// Close writes the -memprofile heap profile, then stops the telemetry
// endpoint, the sampler and the CPU profile. Defer it right after
// Start.
func (h *Harness) Close() {
	if h.memProfile != "" {
		if err := trace.WriteHeapProfile(h.memProfile); err != nil {
			h.fatal("memprofile failed", "err", err)
		}
	}
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
}
