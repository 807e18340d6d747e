package main

// Every workload reports every metric, so runs of different workloads
// compare column by column. A per-layer metric of a layer the workload
// does not run reads 0 with 0 samples.

// endToEndUnits are the user-visible metrics, measured untraced.
var endToEndUnits = map[string]string{
	"time_to_solution_s": "s",
	"gflops":             "Gflop/s",
	"setup_s":            "s",
	"peak_rss_mb":        "MB",
	"job_p50_ms":         "ms",
}

// perLayerUnits are the single-layer metrics of the traced run.
var perLayerUnits = map[string]string{
	"core.sort_s":                       "s",
	"tree.build_s":                      "s",
	"tree.cells":                        "count",
	"tree.walk_s":                       "s",
	"tree.traversals":                   "count",
	"tree.ns_per_interaction":           "ns",
	"grav.kernel_s":                     "s",
	"grav.interactions":                 "count",
	"grav.kernel_gflops":                "Gflop/s",
	"grav.bytes_computed":               "B",
	"grav.force_err_p99":                "ratio",
	"hotengine.walk_s":                  "s",
	"hotengine.walk_ns_per_interaction": "ns",
	"hotengine.treebuild_s":             "s",
	"hotengine.branches_s":              "s",
	"hotengine.rounds":                  "count",
	"hotengine.remote_cells":            "count",
	"hotengine.deferred":                "count",
	"domain.decompose_s":                "s",
	"domain.bisection_rounds":           "count",
	"domain.splits_reused":              "count",
	"domain.displaced_frac":             "ratio",
	"abm.requests":                      "count",
	"abm.requests_per_msg":              "ratio",
	"msg.msgs":                          "count",
	"msg.bytes":                         "B",
	"msg.max_rank_bytes":                "B",
	"msg.rank_imbalance":                "ratio",
	"integrate.substeps":                "count",
	"integrate.partial_evals":           "count",
	"integrate.active_frac":             "ratio",
	"integrate.energy_drift":            "ratio",
	"simserve.submit_ms_p50":            "ms",
	"simserve.submit_ms_p99":            "ms",
	"simserve.queue_ms_p50":             "ms",
	"simserve.queue_ms_p99":             "ms",
	"simserve.run_ms_p50":               "ms",
	"simserve.run_ms_p99":               "ms",
	"simserve.world_ms_p50":             "ms",
	"simserve.world_ms_p99":             "ms",
	"simserve.overhead_ms_p50":          "ms",
	"simserve.overhead_ms_p99":          "ms",
	"simserve.job_p99_ms":               "ms",
	"simserve.batch_jobs_mean":          "jobs",
	"simserve.rejected":                 "count",
	"load.gen_late_max_ms":              "ms",
	"trace.overhead_s":                  "s",
}

// set records a metric under its declared unit.
func set(ms map[string]metric, units map[string]string, name string, v float64, samples int, base string) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	ms[name] = metric{Value: v, Unit: u, Samples: samples, Base: base}
}

func (oc *outcome) e2e(name string, v float64, samples int, base string) {
	set(oc.endToEnd, endToEndUnits, name, v, samples, base)
}

func (oc *outcome) layer(name string, v float64, samples int, base string) {
	set(oc.perLayer, perLayerUnits, name, v, samples, base)
}

// zeroLayers fills every per-layer metric with 0 so that a workload
// only sets the layers it runs.
func (oc *outcome) zeroLayers() {
	for n := range perLayerUnits {
		oc.layer(n, 0, 0, "layer not run by this workload")
	}
}
