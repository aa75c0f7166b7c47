package repro_test

// Serving-layer documentation pins. These live in the external test
// package because they exercise internal/serve (which itself imports the
// root package) against docs/SERVICE.md and docs/OPERATIONS.md.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/serve"
)

// metricTokens extracts every metric name with the given prefix that a
// document mentions.
func metricTokens(doc, prefix string) []string {
	re := regexp.MustCompile(prefix + `_[a-z_]+`)
	seen := make(map[string]bool)
	var out []string
	for _, tok := range re.FindAllString(doc, -1) {
		if !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	return out
}

// TestDocsServiceMatchesCode keeps docs/SERVICE.md tied to the serving
// layer: the flags and mechanisms it names must exist, and every
// ftserve_/ftrouter_ metric it documents must actually be emitted by a
// live /metrics endpoint (scraped, not string-matched against the code).
func TestDocsServiceMatchesCode(t *testing.T) {
	data, err := os.ReadFile("docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"-cache-dir", "-cache-max-bytes", "-shard", "-router",
		"421", ".corrupt", "ShardOf", "Retry-After",
		"ftload", "load-check", "BENCHMARK.json", "serve-mix", "bench/run.sh",
		"-log-level", "Ftserve-Trace-Id", "Ftserve-Request-Id", "Ftserve-Proxy-Start",
		"format=service", "/v1/status", "/debug/pprof",
		"text/plain; version=0.0.4", "backoff_wait",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/SERVICE.md does not mention %q", want)
		}
	}

	srv, err := serve.New(serve.Options{Workers: 1, QueueDepth: 4, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()
	rt, err := serve.NewRouter([]string{backend.URL})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	scrape := func(base string) string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	backendMetrics, routerMetrics := scrape(backend.URL), scrape(router.URL)
	for _, name := range metricTokens(doc, "ftserve") {
		if !strings.Contains(backendMetrics, name) {
			t.Errorf("docs/SERVICE.md documents %q, which /metrics does not emit", name)
		}
	}
	tokens := metricTokens(doc, "ftrouter")
	if len(tokens) == 0 {
		t.Error("docs/SERVICE.md documents no ftrouter_ metrics")
	}
	for _, name := range tokens {
		if !strings.Contains(routerMetrics, name) {
			t.Errorf("docs/SERVICE.md documents %q, which the router's /metrics does not emit", name)
		}
	}
}

// TestDocsOperationsMatchesCode keeps docs/OPERATIONS.md honest: the
// flags, endpoints, report fields, and artifacts its runbooks reference
// must exist under those names.
func TestDocsOperationsMatchesCode(t *testing.T) {
	data, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"-cache-dir", "-cache-max-bytes", "-shard 0/3", "-router",
		"-shutdown-timeout", "/healthz", "ok router shards=3",
		"ftserve_rejected_total", "ftserve_cache_misses_total",
		"ftserve_cache_disk_hits_total", "ftserve_cache_disk_quarantined_total",
		"durability_test.go", ".json.corrupt",
		"cmd/ftload", "throughput_rps", "rate_429", "p99_us", "unique_jobs",
		"BENCHMARK.json", "serve-mix", "bench/run.sh", "make load-check",
		"/v1/status", "/debug/pprof", "backoff_wait",
		"Ftserve-Request-Id", "-log-level", "fttrace",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/OPERATIONS.md does not mention %q", want)
		}
	}
	// The benchmark workload the runbook points at must be declared.
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	for _, w := range bench.Workloads {
		if w.Name == "serve-mix" {
			return
		}
	}
	t.Error("BENCHMARK.json declares no serve-mix workload")
}

// TestDocsObservabilityServicePhases pins the service-span taxonomy in
// docs/OBSERVABILITY.md to serve.ServicePhases(): every phase the code
// can emit must appear in the doc's taxonomy table, and the doc must not
// invent phases the code never records.
func TestDocsObservabilityServicePhases(t *testing.T) {
	data, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	phases := serve.ServicePhases()
	if len(phases) == 0 {
		t.Fatal("serve.ServicePhases() returned no phases")
	}
	for _, phase := range phases {
		if !strings.Contains(doc, "`"+phase+"`") {
			t.Errorf("docs/OBSERVABILITY.md taxonomy does not mention phase %q", phase)
		}
	}
	// The doc's own claim about where the pin lives must stay true.
	if !strings.Contains(doc, "ServicePhases()") {
		t.Error("docs/OBSERVABILITY.md does not reference serve.ServicePhases()")
	}
}
