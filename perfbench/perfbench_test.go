package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/ic"
	"repro/internal/simserve"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at test size and parses its result line.
func runTiny(t *testing.T, out, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--tiny", "--out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return r
}

// The declared metric tables and BENCHMARK.json must agree, and every
// workload must report every metric, with its unit, in both modes.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.EndToEnd) != len(endToEndUnits) || len(spec.PerLayer) != len(perLayerUnits) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndUnits), len(perLayerUnits))
	}
	for _, m := range spec.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, benchmark %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	for _, m := range spec.PerLayer {
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, benchmark %q", m.Name, m.Unit, perLayerUnits[m.Name])
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("workload %s not implemented", w.Name)
		}
		for trace, want := range map[string]map[string]string{"0": endToEndUnits, "1": perLayerUnits} {
			r := runTiny(t, out, w.Name, trace)
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, name, m, unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(out, "spans-serve_open-seed3.jsonl")); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}

// Two runs of one commit and seed must agree exactly on interaction
// counts and force hashes.
func TestRunsRepeatExactly(t *testing.T) {
	out := t.TempDir()
	for i := 0; i < 2; i++ {
		runTiny(t, out, "plummer_np4", "0")
	}
	f, err := os.Open(filepath.Join(out, "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ids []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec struct {
			IDs  json.RawMessage `json:"ids"`
			Host map[string]any  `json:"host"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Host["go"] == nil || rec.Host["nproc"] == nil {
			t.Errorf("record lacks the host fingerprint: %v", rec.Host)
		}
		ids = append(ids, string(rec.IDs))
	}
	if len(ids) != 2 || ids[0] != ids[1] {
		t.Fatalf("run identities differ: %v", ids)
	}
}

// exactForces returns a small system holding direct-summation
// accelerations.
func exactForces(n int) *core.System {
	s := ic.Plummer(n, 1.0, 5)
	direct.Serial(s.Pos, s.Mass, s.Acc, s.Pot, parEps2)
	return s
}

func allOK(gs []gate) bool {
	for _, g := range gs {
		if !g.OK {
			return false
		}
	}
	return true
}

func TestForceGatesTripOnPerturbedAcceleration(t *testing.T) {
	s := exactForces(300)
	sinks := sampleSinks(300, 300, 1)
	errs, err := forceErrors([]*core.System{s}, 300, sinks, parEps2)
	if err != nil {
		t.Fatal(err)
	}
	if !allOK(forceGates(errs)) {
		t.Fatalf("exact forces fail the gates: %v", forceGates(errs))
	}
	// One body 10% off trips the maximum; 2% of bodies 1% off trip the
	// 99th percentile.
	s.Acc[7] = s.Acc[7].Scale(1.1)
	errs, _ = forceErrors([]*core.System{s}, 300, sinks, parEps2)
	if g := forceGates(errs); g[1].OK {
		t.Errorf("max gate passed a 10%% error: %v", g)
	}
	s = exactForces(300)
	for i := 0; i < 6; i++ {
		s.Acc[i*50] = s.Acc[i*50].Scale(1.01)
	}
	errs, _ = forceErrors([]*core.System{s}, 300, sinks, parEps2)
	if g := forceGates(errs); g[0].OK {
		t.Errorf("p99 gate passed 2%% of sinks 1%% off: %v", g)
	}
}

func TestForceErrorsRejectLostBodies(t *testing.T) {
	s := exactForces(50)
	s.ID[3] = s.ID[4]
	if _, err := forceErrors([]*core.System{s}, 50, sampleSinks(50, 10, 1), parEps2); err == nil {
		t.Fatal("duplicated body ID accepted")
	}
}

func TestHashGateTripsOnChangedHash(t *testing.T) {
	now := time.Now()
	st := map[string]simserve.Status{
		"a": {ID: "a", State: simserve.StateCompleted, Finished: &now, Result: &simserve.Result{ForcesHash: "00ff"}},
		"b": {ID: "b", State: simserve.StateCompleted, Finished: &now, Result: &simserve.Result{ForcesHash: "00ff"}},
	}
	recs := []jobRec{{id: "a", seed: 1}, {id: "b", seed: 1}}
	ref := map[int64]string{1: "00ff"}
	if g := hashGate(recs, st, ref); !g.OK {
		t.Fatalf("matching hashes fail: %v", g)
	}
	st["b"].Result.ForcesHash = "00fe"
	if g := hashGate(recs, st, ref); g.OK {
		t.Fatal("changed job hash passed")
	}
}

// The direct-summation check reads the pipeline's forces, so the
// pipeline must match hot.Serial bit for bit, and a force change on
// either side (here a different softening) must trip the match.
func TestPipelineMatchGatesTripOnChangedForces(t *testing.T) {
	sz := serialSizes(true)
	global := ic.Plummer(sz.n, 1.0, 4)
	cfg := hot.Defaults()
	r, err := runHotSerial(toBodies(global), cfg, sz)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := solvePipeline(global, cfg, sz, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g := matchGates("pipeline", p, r); !allOK(g) {
		t.Fatalf("pipeline differs from hot.Serial: %v", g)
	}
	cfg.Eps *= 1.01
	p, _, err = solvePipeline(global, cfg, sz, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g := matchGates("pipeline", p, r); g[1].OK {
		t.Errorf("state hash gate passed a 1%% softening change: %v", g)
	}
}

func TestShedGateTrips(t *testing.T) {
	if !shedGate(0, 0).OK || shedGate(1, 0).OK || shedGate(0, 1).OK {
		t.Error("shed gate misjudges rejected or failed jobs")
	}
}

func TestDriftAndRepeatGatesTrip(t *testing.T) {
	if driftGate(2e-3, 1e-3).OK || !driftGate(1e-4, 1e-3).OK {
		t.Error("drift gate misjudges its budget")
	}
	if sameGate("x", []uint64{5, 5, 6}).OK || !sameGate("x", []uint64{5, 5}).OK {
		t.Error("repeat gate misjudges repetitions")
	}
}
