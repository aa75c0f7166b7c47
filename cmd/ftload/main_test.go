package main

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// smokeOpts is the load-check configuration: small enough to finish in
// seconds, sharded enough to cross the router.
func smokeOpts() options {
	return options{
		shards:   2,
		clients:  16,
		requests: 48,
		dupRatio: 0.5,
		hotPool:  4,
		seed:     1,
		ops:      100,
		wait:     true,
		workers:  1,
		queue:    64,
	}
}

// TestRunSelfServeReportShape is the JSON shape pin behind `make
// load-check`: every field docs/OPERATIONS.md teaches operators to read
// must be present and internally consistent.
func TestRunSelfServeReportShape(t *testing.T) {
	rep, err := run(smokeOpts())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Shards != 2 || rep.Clients != 16 || rep.Requests != 48 {
		t.Fatalf("report echoes wrong config: %+v", rep)
	}
	done := rep.Outcomes.Accepted + rep.Outcomes.Cached
	if done+rep.Outcomes.Errors != 48 {
		t.Fatalf("outcomes don't account for every request: %+v", rep.Outcomes)
	}
	if rep.Outcomes.Errors != 0 || rep.Outcomes.Failed != 0 {
		t.Fatalf("self-serve smoke hit errors: %+v", rep.Outcomes)
	}
	if rep.Outcomes.Cached == 0 {
		t.Fatal("a 50% duplicate mix produced zero cache hits")
	}
	if rep.UniqueJobs == 0 || rep.UniqueJobs > 48 {
		t.Fatalf("unique_jobs = %d", rep.UniqueJobs)
	}
	l := rep.Latency
	if l.P50 == 0 || l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max {
		t.Fatalf("latency quantiles out of order: %+v", l)
	}
	if rep.WallMs <= 0 || rep.Throughput <= 0 {
		t.Fatalf("wall/throughput not positive: %+v", rep)
	}

	// The serialized shape is the contract: pin the exact key set.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.Unmarshal(raw, &m)
	for _, key := range []string{
		"target", "class", "shards", "clients", "requests", "dup_ratio", "unique_jobs",
		"waited", "outcomes", "rate_429", "latency", "backoff_requests", "backoff_wait",
		"wall_ms", "throughput_rps",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON report missing key %q", key)
		}
		delete(m, key)
	}
	delete(m, "fleet") // optional: present when the target answered /v1/status
	for key := range m {
		t.Errorf("JSON report has unpinned key %q — update the shape pin and docs", key)
	}
	for _, key := range []string{"p50_us", "p95_us", "p99_us", "max_us", "mean_us"} {
		if !strings.Contains(string(raw), `"`+key+`"`) {
			t.Errorf("latency object missing %q", key)
		}
	}

	// Self-serve targets always answer /v1/status, so the fleet capture
	// must be present and name the topology the run stood up.
	if len(rep.Fleet) == 0 {
		t.Fatal("report did not capture the target's /v1/status document")
	}
	var fleet struct {
		Router     bool `json:"router"`
		ShardCount int  `json:"shard_count"`
	}
	if err := json.Unmarshal(rep.Fleet, &fleet); err != nil {
		t.Fatalf("fleet capture is not a status document: %v", err)
	}
	if !fleet.Router || fleet.ShardCount != 2 {
		t.Fatalf("fleet capture should be the router's 2-shard aggregation: %s", rep.Fleet)
	}
	if fleetLine(rep.Fleet) == "" {
		t.Fatal("fleetLine could not summarize the captured status")
	}
}

// TestBackoffSeparatedFromLatency drives a topology starved enough to 429
// and checks the report accounts the client's retry sleep separately from
// service latency.
func TestBackoffSeparatedFromLatency(t *testing.T) {
	opts := smokeOpts()
	opts.shards = 1
	opts.clients = 32
	opts.requests = 64
	opts.dupRatio = 0 // every submission is real work
	opts.workers = 1
	opts.queue = 1 // almost no queue: most submissions bounce at least once
	rep, err := run(opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Outcomes.Rejected == 0 {
		t.Skip("topology did not produce any 429s; nothing to assert")
	}
	if rep.BackoffRequests == 0 {
		t.Fatalf("%d rejected attempts but backoff_requests = 0", rep.Outcomes.Rejected)
	}
	if rep.BackoffWait.Max == 0 || rep.BackoffWait.P50 > rep.BackoffWait.Max {
		t.Fatalf("backoff quantiles inconsistent: %+v", rep.BackoffWait)
	}
}

// TestScheduleIsDeterministicAndMixesDuplicates: same flags + seed =
// same request schedule; the dup-ratio extremes behave as documented.
func TestScheduleIsDeterministicAndMixesDuplicates(t *testing.T) {
	opts := smokeOpts()
	a, uniqueA := schedule(opts)
	b, uniqueB := schedule(opts)
	if len(a) != opts.requests || uniqueA != uniqueB {
		t.Fatalf("schedule not stable: %d vs %d unique", uniqueA, uniqueB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at %d", i)
		}
	}

	opts.dupRatio = 0
	if _, unique := schedule(opts); unique != opts.requests {
		t.Fatalf("dup-ratio 0: unique = %d, want %d", unique, opts.requests)
	}
	opts.dupRatio = 1
	if _, unique := schedule(opts); unique > opts.hotPool {
		t.Fatalf("dup-ratio 1: unique = %d, want <= hot pool %d", unique, opts.hotPool)
	}
}

// TestBenchLinesMatchBench2jsonFormat pins the -bench output against the
// exact line grammar cmd/bench2json parses (same regexp), so `make
// bench` keeps ingesting ftload records.
func TestBenchLinesMatchBench2jsonFormat(t *testing.T) {
	rep := &report{
		Clients: 1000, Shards: 2, Requests: 2000,
		Latency:     quantiles{P50: 1200, P99: 9800, Mean: 2100.5},
		BackoffWait: quantiles{P50: 900, Max: 4000, Mean: 1100.2},
		Throughput:  845.2, Rate429: 0.012,
	}
	out := benchLines(rep)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 || lines[0] != "pkg: repro/cmd/ftload" {
		t.Fatalf("want pkg header + one bench line, got %q", out)
	}
	benchLine := regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)
	m := benchLine.FindStringSubmatch(lines[1])
	if m == nil {
		t.Fatalf("bench line does not match the bench2json grammar: %q", lines[1])
	}
	fields := strings.Fields(m[3])
	if len(fields)%2 != 0 {
		t.Fatalf("odd value/unit list: %q", m[3])
	}
	units := map[string]bool{}
	for i := 1; i < len(fields); i += 2 {
		units[fields[i]] = true
	}
	for _, want := range []string{"ns/op", "p50-us", "p99-us", "req/s", "429-rate", "backoff-us", "clients", "shards"} {
		if !units[want] {
			t.Errorf("bench line missing unit %q: %q", want, lines[1])
		}
	}
}

// TestRunRejectsBadFlags: validation happens before any server spins up.
func TestRunRejectsBadFlags(t *testing.T) {
	bad := smokeOpts()
	bad.dupRatio = 1.5
	if _, err := run(bad); err == nil {
		t.Fatal("dup-ratio > 1 accepted")
	}
	bad = smokeOpts()
	bad.clients = 0
	if _, err := run(bad); err == nil {
		t.Fatal("0 clients accepted")
	}
	bad = smokeOpts()
	bad.class = "explode"
	if _, err := run(bad); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// TestTileDeathClassLoad drives the structural experiment class through the
// whole stack: -class tile-death submissions resolve, execute (a sampled
// tile-death campaign each), coalesce in the cache, and finish clean.
func TestTileDeathClassLoad(t *testing.T) {
	opts := smokeOpts()
	opts.shards = 1
	opts.clients = 4
	opts.requests = 8
	opts.hotPool = 2
	opts.ops = 20
	opts.class = "tile-death"

	bodies, _ := schedule(opts)
	for _, b := range bodies {
		if !strings.Contains(b, `"type":"tile-death"`) {
			t.Fatalf("schedule emitted a non-tile-death body: %s", b)
		}
	}

	rep, err := run(opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Class != "tile-death" {
		t.Fatalf("report class %q", rep.Class)
	}
	if rep.Outcomes.Errors != 0 || rep.Outcomes.Failed != 0 {
		t.Fatalf("tile-death load hit errors: %+v", rep.Outcomes)
	}
	if rep.Outcomes.Accepted+rep.Outcomes.Cached != uint64(opts.requests) {
		t.Fatalf("outcomes don't account for every request: %+v", rep.Outcomes)
	}
}

// TestQuantilesOfNearestRank: the report's percentiles are exact
// nearest-rank values over the samples, not histogram bucket edges.
func TestQuantilesOfNearestRank(t *testing.T) {
	// 1..100 shuffled: the p-th percentile of 1..100 is p itself.
	var samples []uint64
	for i := uint64(0); i < 100; i++ {
		samples = append(samples, (i*37)%100+1)
	}
	got := quantilesOf(samples)
	want := quantiles{P50: 50, P95: 95, P99: 99, Max: 100, Mean: 50.5}
	if got != want {
		t.Fatalf("quantilesOf(1..100) = %+v, want %+v", got, want)
	}

	// Three samples: nearest rank takes ceil(p/100*3), so p50 is the 2nd
	// sample and p95/p99 the 3rd. A power-of-two histogram would report
	// 2,097,151 for a sample of 1,500,000.
	got = quantilesOf([]uint64{1_500_000, 300, 7_000})
	want = quantiles{P50: 7_000, P95: 1_500_000, P99: 1_500_000, Max: 1_500_000, Mean: 1_507_300.0 / 3}
	if got != want {
		t.Fatalf("quantilesOf(3 samples) = %+v, want %+v", got, want)
	}

	if got := quantilesOf(nil); got != (quantiles{}) {
		t.Fatalf("quantilesOf(nil) = %+v, want zero", got)
	}
	if got := quantilesOf([]uint64{42}); got != (quantiles{P50: 42, P95: 42, P99: 42, Max: 42, Mean: 42}) {
		t.Fatalf("quantilesOf(one sample) = %+v", got)
	}
}

// TestSummaryPrintsExactPercentiles: the human summary labels the exact
// percentiles with "=", not the "<=" of a bucket upper bound.
func TestSummaryPrintsExactPercentiles(t *testing.T) {
	rep := &report{
		Requests: 3, Clients: 1, Target: "http://x",
		Latency:         quantiles{P50: 7000, P95: 9000, P99: 9100, Max: 9100},
		BackoffRequests: 1,
		BackoffWait:     quantiles{P50: 2000, P99: 2000, Max: 2000},
	}
	out := summary(rep)
	for _, want := range []string{"p50=7000us p95=9000us p99=9100us max=9100us", "1 requests waited, p50=2000us p99=2000us"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "<=") {
		t.Errorf("summary still prints bucket bounds:\n%s", out)
	}
}
