// Package bench is the repository's benchmark: four workloads that cover
// what users of this module pay host time for — the paper's Figure 3/4
// simulations, the loss-coverage and model-checking proofs of the
// fault-tolerance claim, and ftserve requests — measured end to end from
// outside through the public functions of repro and repro/internal/...,
// plus a separate traced run that breaks the host time down per layer.
// cmd/ftbench is the command; README.md documents workloads and metrics.
package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/msg"
)

// Options selects what one benchmark run measures.
type Options struct {
	// Workload names one of Workloads().
	Workload string
	// Seed drives every generated input of the workload.
	Seed uint64
	// Seconds is the measurement time: samples repeat until it elapses.
	// A traced run splits it between its untraced and traced halves.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics.
	Trace bool
	// WorkDir holds the serve-mix disk cache while it runs and receives
	// the traced run's spans; it is created if missing.
	WorkDir string
	// Tiny shrinks every workload to a smoke-test size.
	Tiny bool
	// Log receives human-readable progress lines; nil discards them.
	Log io.Writer
}

// Workloads returns the workload names in run order.
func Workloads() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// Metric is one reported metric with the raw samples it was computed from.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind Value; 0 marks a metric the
	// workload does not exercise (Value is then 0).
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P75 float64 `json:"p75"`
	// TailPct/Tail are the highest percentile with at least ten samples
	// beyond it, and its value; absent below 20 samples.
	TailPct float64   `json:"tail_pct,omitempty"`
	Tail    float64   `json:"tail,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// Env records the conditions a run was measured under.
type Env struct {
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified bool   `json:"vcs_modified"`
	CPUModel    string `json:"cpu_model"`
	Start       string `json:"start"`
}

// Report is the complete record of one run: every metric with its raw
// samples, the workload parameters, the environment and the output checks.
type Report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Env       Env                `json:"env"`
	Params    map[string]any     `json:"params"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]*Metric `json:"metrics"`
}

// run is the state one workload execution reports into.
type run struct {
	opts Options
	rep  *Report
	// metrics receives the current phase's values (a traced run measures
	// an untraced and a traced phase separately).
	metrics map[string]*Metric
	// budget is the current phase's measurement time.
	budget time.Duration
	// tr records spans in the traced phase; nil (a no-op) otherwise.
	tr *tracer
	// ref carries values from the untraced phase to the traced one, which
	// cross-checks its system-level runs against the public API's results.
	ref map[string]any
	// refs are the phase's reference-kernel times in ms (hostref.go).
	refs []float64
}

// Run executes one workload and returns its report. An error means the
// benchmark could not run at all; output mismatches are recorded in the
// report (Correct false, Failed > 0) instead.
func Run(opts Options) (*Report, error) {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == opts.Workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opts.Workload, strings.Join(Workloads(), ", "))
	}
	if opts.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %v", opts.Seconds)
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	if opts.WorkDir == "" {
		opts.WorkDir = "."
	}
	r := &run{
		opts: opts,
		rep: &Report{
			Workload: opts.Workload, Seed: opts.Seed, Seconds: opts.Seconds, Trace: opts.Trace,
			Env: captureEnv(), Params: map[string]any{}, Metrics: map[string]*Metric{},
		},
		ref: map[string]any{},
	}
	total := time.Duration(opts.Seconds * float64(time.Second))

	if !opts.Trace {
		r.metrics = r.rep.Metrics
		r.budget = total
		if err := w.run(r); err != nil {
			return nil, err
		}
		r.normalize()
	} else {
		if err := r.traced(w, total); err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			if _, ok := r.rep.Metrics[d.name]; !ok {
				r.rep.Metrics[d.name] = &Metric{Unit: d.unit}
			}
		}
	}
	r.rep.Correct = r.rep.Failed == 0
	return r.rep, nil
}

// traced runs the workload twice: an untraced half whose end-to-end
// numbers are the run's headline, then a traced half under a CPU profile
// with spans, followed by the microbenchmarks. The per-layer metrics come
// from the traced half; trace_overhead_pct compares the two halves'
// latency_ms.
func (r *run) traced(w *workloadDef, total time.Duration) error {
	half := total / 2
	untraced := map[string]*Metric{}
	r.metrics, r.budget = untraced, half
	if err := w.run(r); err != nil {
		return err
	}
	r.normalize()

	traced := map[string]*Metric{}
	r.metrics, r.budget = traced, half
	r.tr = newTracer()
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	gets0, news0 := msg.PoolStats()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	start := time.Now()
	err := w.run(r)
	wall := time.Since(start)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	gets1, news1 := msg.PoolStats()
	r.normalize()

	shares, cpu, err := cpuShares(prof.Bytes())
	if err != nil {
		return fmt.Errorf("reduce CPU profile: %w", err)
	}
	for name, pct := range shares {
		r.set(name, pct)
	}
	r.set("runtime.cpu_per_wall", cpu.Seconds()/wall.Seconds())
	r.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	if gets := gets1 - gets0; gets > 0 {
		r.set("msg.pool_reuse_ratio", float64(gets-(news1-news0))/float64(gets))
	}
	if u, t := untraced["latency_ms"], traced["latency_ms"]; u != nil && t != nil && u.Value > 0 {
		r.set("trace_overhead_pct", (t.Value/u.Value-1)*100)
	}

	fmt.Fprintf(r.opts.Log, "%s: microbenchmarks\n", r.opts.Workload)
	if err := runMicro(r); err != nil {
		return err
	}
	spans := filepath.Join(r.opts.WorkDir, fmt.Sprintf("spans-%s-seed%d.json", r.opts.Workload, r.opts.Seed))
	if err := r.tr.writeChrome(spans); err != nil {
		return err
	}
	r.param("spans", spans)

	for name, m := range untraced {
		if !isPerLayer(name) {
			r.rep.Metrics[name] = m
		}
	}
	for name, m := range traced {
		if isPerLayer(name) {
			r.rep.Metrics[name] = m
		}
	}
	return nil
}

// repeat calls sample with i = 0, 1, ... until the phase budget is spent,
// at least min times. It stops early rather than start a sample that the
// previous one's duration says would end past the budget. Each sample
// starts from a collected heap and is followed by a few timings of the
// reference kernel.
func (r *run) repeat(min int, sample func(i int) error) error {
	deadline := time.Now().Add(r.budget)
	var last time.Duration
	r.timeRef(5)
	for i := 0; i < min || time.Now().Add(last).Before(deadline); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := sample(i); err != nil {
			return err
		}
		last = time.Since(t0)
		r.timeRef(3)
	}
	return nil
}

// attempt counts n attempted operations.
func (r *run) attempt(n int) { r.rep.Attempted += n }

// fail records one failed operation or output-check mismatch.
func (r *run) fail(format string, args ...any) {
	r.rep.Failed++
	msg := fmt.Sprintf(format, args...)
	if len(r.rep.Failures) < 20 {
		r.rep.Failures = append(r.rep.Failures, msg)
	}
	fmt.Fprintf(r.opts.Log, "%s: FAIL: %s\n", r.opts.Workload, msg)
}

// param records a workload parameter in the report.
func (r *run) param(name string, v any) { r.rep.Params[name] = v }

// samples records a metric from raw samples; its value is their median.
func (r *run) samples(name string, xs []float64) {
	d, ok := lookupDef(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m := &Metric{Unit: d.unit, N: len(xs), Samples: append([]float64(nil), xs...)}
	if len(xs) > 0 {
		s := sorted(xs)
		m.Value = quantile(s, 0.5)
		m.P25, m.P75 = quantile(s, 0.25), quantile(s, 0.75)
		if pct, v, ok := tail(s); ok {
			m.TailPct, m.Tail = pct, v
		}
	}
	r.metrics[name] = m
}

// set records a single-valued metric (a count, a ratio or an aggregate).
func (r *run) set(name string, v float64) { r.samples(name, []float64{v}) }

// setup times reps repetitions of a workload's set-up and records their
// median as setup_s.
func (r *run) setup(reps int, build func() error) error {
	xs := make([]float64, 0, reps)
	runtime.GC()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	r.samples("setup_s", xs)
	return nil
}

// allocMeter holds the process-wide allocation counters at the start of a
// sample.
type allocMeter struct{ bytes, objects uint64 }

func startAllocs() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.TotalAlloc, ms.Mallocs}
}

// per returns the bytes and objects allocated since start, per op.
func (a allocMeter) per(ops int) (bytes, objects float64) {
	now := startAllocs()
	return float64(now.bytes-a.bytes) / float64(ops), float64(now.objects-a.objects) / float64(ops)
}

// captureEnv records the machine, toolchain and source revision.
func captureEnv() Env {
	e := Env{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), VCSRevision: "unknown", CPUModel: "unknown",
		Start: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.VCSRevision = s.Value
			case "vcs.modified":
				e.VCSModified = s.Value == "true"
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// ResultLine renders the one-line JSON summary of a report: correctness,
// operation counts, and the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run), each with its value and unit.
func ResultLine(rep *Report) ([]byte, error) {
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]vu, len(defs))
	for _, d := range defs {
		m := rep.Metrics[d.name]
		if m == nil || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", d.name)
		}
		metrics[d.name] = vu{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
}

// WriteText renders a report as the human-readable table: every metric
// the run measured, with unit, sample count, quartiles and tail.
func WriteText(w io.Writer, rep *Report) {
	mode := "untraced"
	if rep.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %gs; %s, GOMAXPROCS %d, nproc %d, %s, rev %.12s) ==\n",
		rep.Workload, mode, rep.Seed, rep.Seconds, rep.Env.GoVersion, rep.Env.GOMAXPROCS,
		rep.Env.NumCPU, rep.Env.CPUModel, rep.Env.VCSRevision)
	names := make([]string, 0, len(rep.Metrics))
	for name, m := range rep.Metrics {
		if m.N > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s n=%-5d", name, m.Value, m.Unit, m.N)
		if m.N > 1 {
			fmt.Fprintf(w, " iqr=[%.6g, %.6g]", m.P25, m.P75)
		}
		if m.TailPct > 0 {
			fmt.Fprintf(w, " p%g=%.6g", m.TailPct, m.Tail)
		}
		fmt.Fprintln(w)
	}
	status := "all output checks passed"
	if !rep.Correct {
		status = fmt.Sprintf("%d FAILED", rep.Failed)
	}
	fmt.Fprintf(w, "  %d ops attempted, %s\n", rep.Attempted, status)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "    %s\n", f)
	}
}

// AppendJSONL appends a report as one JSON line to path; a set of runs
// accumulates in one file for compare.
func AppendJSONL(path string, rep *Report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// derive mixes a workload-specific salt into the benchmark seed
// (splitmix64), so each workload and each input stream of a workload
// draws independent values from one -seed.
func derive(seed uint64, salt string) uint64 {
	z := seed
	for _, c := range []byte(salt) {
		z = z*1099511628211 ^ uint64(c)
	}
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
