package bench

import "repro/internal/serve"

// The benchmark's declared metrics. BENCHMARK.json at the repository root
// declares the same end-to-end and per-layer names, units, directions and
// bounds; bench_test.go keeps the two in step.

// metricDef declares one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// exact marks a deterministic count: two runs at one seed must agree
	// on it exactly, so compare diffs it instead of testing it.
	exact bool
}

// endToEnd are the metrics a user of the system sees. Each is defined on
// every workload; what one "op" is differs per workload (see README.md):
// a Table-4 simulation run (fig3), a campaign pair (loss-coverage), a
// model-checking gate (interleave) or an HTTP request (serve-mix).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput", unit: "1/s", better: "higher", bound: 0.25},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.05},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05},
}

// hostMetrics are reported beside the end-to-end metrics in the full
// report: the host-time metrics before scaling to the reference speed, and
// the reference kernel's time (hostref.go).
var hostMetrics = []metricDef{
	{name: "raw.setup_s", unit: "s", better: "lower"},
	{name: "raw.latency_ms", unit: "ms", better: "lower"},
	{name: "raw.throughput", unit: "1/s", better: "higher"},
	{name: "host.ref_ms", unit: "ms", better: "lower"},
}

// cpuModules are the layers a CPU profile sample can be charged to: every
// package of the module, the repro facade and the benchmark itself. With
// runtime.gc_cpu_pct and other.cpu_pct they partition the profile.
var cpuModules = []string{
	"sim", "noc", "core", "dircmp", "token", "cache", "msg", "obs",
	"system", "proto", "memctrl", "fault", "stats", "workload", "span",
	"trace", "runner", "coverage", "mc", "serve", "canon", "repro", "bench",
}

// perLayer are the metrics of single layers. A traced run reports every
// one of them on every workload; a count or ratio of a layer the workload
// does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range cpuModules {
		defs = append(defs, metricDef{name: m + ".cpu_pct", unit: "%", better: "lower"})
	}
	return append(defs,
		metricDef{name: "runtime.gc_cpu_pct", unit: "%", better: "lower"},
		metricDef{name: "other.cpu_pct", unit: "%", better: "lower"},
		metricDef{name: "runtime.cpu_per_wall", unit: "ratio", better: "lower"},
		metricDef{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		metricDef{name: "trace_overhead_pct", unit: "%", better: "lower"},

		metricDef{name: "stats.sim_cycles", unit: "cycles", better: "lower", exact: true},
		metricDef{name: "stats.sim_messages", unit: "msgs", better: "lower", exact: true},
		metricDef{name: "sim.events", unit: "count", better: "lower", exact: true},
		metricDef{name: "core.timeouts", unit: "count", better: "lower", exact: true},
		metricDef{name: "core.reissues", unit: "count", better: "lower", exact: true},
		metricDef{name: "runner.jobs", unit: "count", better: "lower", exact: true},
		metricDef{name: "runner.busy_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "coverage.slots", unit: "count", better: "lower", exact: true},
		metricDef{name: "coverage.runs", unit: "count", better: "lower", exact: true},
		metricDef{name: "mc.states", unit: "count", better: "lower", exact: true},
		metricDef{name: "mc.paths", unit: "count", better: "lower", exact: true},
		metricDef{name: "mc.revisits", unit: "count", better: "lower", exact: true},
		metricDef{name: "msg.pool_reuse_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "serve.disk_hits", unit: "count", better: "higher"},
		metricDef{name: "serve.rejected_429", unit: "count", better: "lower"},

		// Microbenchmarks: measured in every traced run, whatever the
		// workload, so each reads a real time on every run.
		metricDef{name: "sim.dispatch_ns", unit: "ns", better: "lower"},
		metricDef{name: "noc.send_ns.mesh", unit: "ns", better: "lower"},
		metricDef{name: "noc.send_ns.detailed", unit: "ns", better: "lower"},
		metricDef{name: "core.l1_hit_ns", unit: "ns", better: "lower"},
		metricDef{name: "core.l1_miss_ns", unit: "ns", better: "lower"},
		metricDef{name: "cache.lookup_ns", unit: "ns", better: "lower"},
		metricDef{name: "cache.new_array_us", unit: "us", better: "lower"},
		metricDef{name: "msg.encode_ns", unit: "ns", better: "lower"},
		metricDef{name: "msg.decode_ns", unit: "ns", better: "lower"},
		metricDef{name: "msg.fingerprint_ns", unit: "ns", better: "lower"},
		metricDef{name: "obs.emit_ns", unit: "ns", better: "lower"},
		metricDef{name: "system.new_us.quick", unit: "us", better: "lower"},
		metricDef{name: "system.new_us.table4", unit: "us", better: "lower"},
		metricDef{name: "system.check_line_ns", unit: "ns", better: "lower"},
		metricDef{name: "system.state_fingerprint_us", unit: "us", better: "lower"},
		metricDef{name: "system.memory_image_hash_us", unit: "us", better: "lower"},
		metricDef{name: "canon.hash_us", unit: "us", better: "lower"},
	)
}()

// details are per-layer timings that exist on one workload only. A traced
// run of that workload reports them in its full report (-json) and text
// table; they stay out of the one-line result, where a time that is not
// measured would read the same on every run.
var details = func() []metricDef {
	defs := []metricDef{
		{name: "sim.ns_per_event", unit: "ns", better: "lower"},                   // fig3, loss-coverage
		{name: "serve.heavy_p50_ms", unit: "ms", better: "lower"},                 // serve-mix
		{name: "serve.heavy_p99_ms", unit: "ms", better: "lower"},                 // serve-mix
		{name: "serve.overload_p99_ms", unit: "ms", better: "lower"},              // serve-mix
		{name: "router.proxy_us", unit: "us", better: "lower"},                    // serve-mix
		{name: "gen.late_ms_p99", unit: "ms", better: "lower"},                    // serve-mix
		{name: "serve.heavy_within_limit_ratio", unit: "ratio", better: "higher"}, // serve-mix
	}
	for _, p := range serve.ServicePhases() {
		defs = append(defs,
			metricDef{name: "serve." + p + "_ms.p50", unit: "ms", better: "lower"},
			metricDef{name: "serve." + p + "_ms.p99", unit: "ms", better: "lower"},
		)
	}
	return defs
}()

// workloadDef is one named input set the benchmark runs.
type workloadDef struct {
	name string
	why  string
	run  func(*run) error
}

// workloads are the benchmark's workloads, in the order an all-workload
// run executes them.
var workloads = []workloadDef{
	{name: "fig3", run: runFig3,
		why: "Figure 3/4 runs on the Table-4 system: the steady-state simulator hot path (engine, protocol, NoC, caches), fault-free and serial"},
	{name: "loss-coverage", run: runLossCoverage,
		why: "Exhaustive single-loss campaign: thousands of short faulty runs, so per-run setup, timeouts, reissues and recovery bookkeeping matter"},
	{name: "interleave", run: runInterleave,
		why: "Model checking at fault budget 3: every path re-executes a prefix on a fresh system, so system setup and state fingerprinting dominate"},
	{name: "serve-mix", run: runServeMix,
		why: "Open-loop HTTP mix on a two-shard fleet: cache hits beside executions that queue for workers and spill to disk; the only workload for internal/serve"},
}

// lookupDef returns the declaration of a metric name.
func lookupDef(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, hostMetrics, perLayer, details} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// isPerLayer reports whether a metric belongs to the traced run's output:
// a declared per-layer metric or a workload-specific detail.
func isPerLayer(name string) bool {
	for _, list := range [][]metricDef{perLayer, details} {
		for _, d := range list {
			if d.name == name {
				return true
			}
		}
	}
	return false
}
