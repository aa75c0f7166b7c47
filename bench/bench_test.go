package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks that BENCHMARK.json parses with exactly its
// schema's keys and declares the workloads and metrics this package runs
// and reports, with valid names and units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) == 0 || len(b.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", b.RunSeconds, b.Paths, b.Command)
	}

	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is invalid or used twice", name)
		}
		seen[name] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), run %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: declared %+v, reported %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be declared with the largest bound (%v < %v)", setupBound, maxBound)
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d: declared %+v, reported %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny size and
// checks that the output checks pass, that the result line carries every
// declared metric, with its declared unit, and nothing else, and that a
// traced run's CPU shares sum to 100%.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range Workloads() {
		for _, trace := range []bool{false, true} {
			t0 := time.Now()
			rep, err := Run(Options{Workload: w, Seed: 7, Seconds: 0.2, Trace: trace, WorkDir: t.TempDir(), Tiny: true})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, trace, err)
			}
			t.Logf("%s (trace %v): %v", w, trace, time.Since(t0))
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %v", w, trace, rep.Correct, rep.Failed, rep.Attempted, rep.Failures)
			}
			line, err := ResultLine(rep)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, trace, err)
			}
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics in the result line, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want a value in %s", w, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if *res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v, want > 0", w, d.name, *res.Metrics[d.name].Value)
					}
				}
				continue
			}
			sum := rep.Metrics["runtime.gc_cpu_pct"].Value + rep.Metrics["other.cpu_pct"].Value
			for _, m := range cpuModules {
				sum += rep.Metrics[m+".cpu_pct"].Value
			}
			if sum < 99 || sum > 101 {
				t.Errorf("%s: CPU shares sum to %v%%, want 100%%", w, sum)
			}
		}
	}
}

// TestMannWhitney checks the U test against known cases.
func TestMannWhitney(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if p := mannWhitney(a, b); p > 0.001 {
		t.Errorf("disjoint samples: p = %v, want < 0.001", p)
	}
	if p := mannWhitney(a, a); p < 0.99 {
		t.Errorf("identical samples: p = %v, want ~1", p)
	}
	if p := mannWhitney([]float64{1}, b); p != 1 {
		t.Errorf("one-sample side: p = %v, want 1", p)
	}
}

// TestQuantile checks interpolation between closest ranks.
func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.25, 1.75}, {1, 4}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
