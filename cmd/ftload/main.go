// Command ftload drives load against an ftserve deployment and reports
// the latency distribution, throughput, and backpressure rate — the
// measured story behind docs/OPERATIONS.md capacity planning.
//
// It spawns -clients concurrent clients that together submit -requests
// experiments (-class picks what each submission runs: a quick simulation,
// a sampled tile-death campaign for a heavier per-job profile, or the
// interleave model-checking gate). A
// -dup-ratio fraction of submissions is drawn from a small
// hot pool of identical requests (exercising singleflight coalescing and
// the content-addressed cache); the rest are unique (each varies the
// config seed, so each is a genuine execution). Clients retry politely on
// 429 and, with -wait (the default), follow each job to completion, so
// reported latency is end-to-end: submit → result.
//
// Point it at a running deployment:
//
//	ftload -url http://localhost:8080 -clients 1000 -requests 2000 -dup-ratio 0.9
//
// or let it serve its own topology in-process (n backends sharing one
// durable cache dir behind a router when n > 1):
//
//	ftload -serve 2 -clients 1000 -requests 2000 -json
//
// Output is a human summary by default, or a JSON report with -json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

type options struct {
	target   string  // base URL; empty means self-serve
	shards   int     // self-serve topology size
	clients  int     // concurrent clients
	requests int     // total submissions
	dupRatio float64 // fraction of submissions drawn from the hot pool
	hotPool  int     // size of the duplicate pool
	seed     int64   // schedule seed (deterministic request mix)
	ops      int     // OpsPerCore per experiment (work per unique job)
	class    string  // experiment class each submission carries
	wait     bool    // follow jobs to completion
	workers  int     // self-serve: workers per backend
	queue    int     // self-serve: queue depth per backend
}

// outcomes counts every terminal response class. Retried 429s are counted
// once per attempt (that is the backpressure rate a client experiences),
// but each request lands in exactly one of the other classes.
type outcomes struct {
	Accepted uint64 `json:"accepted"` // 202: this client triggered or joined an execution
	Cached   uint64 `json:"cached"`   // 200: replay served from memory or disk
	Rejected uint64 `json:"rejected"` // 429 attempts (later retried)
	Errors   uint64 `json:"errors"`   // transport failures or unexpected statuses
	Failed   uint64 `json:"failed"`   // jobs that finished in a non-done state
}

// quantiles is the serialized latency distribution, in microseconds. The
// percentiles are exact nearest-rank values over every sample.
type quantiles struct {
	P50  uint64  `json:"p50_us"`
	P95  uint64  `json:"p95_us"`
	P99  uint64  `json:"p99_us"`
	Max  uint64  `json:"max_us"`
	Mean float64 `json:"mean_us"`
}

// report is the JSON document ftload emits; cmd/ftload's tests pin this
// shape and docs/OPERATIONS.md walks through reading one.
//
// Latency and BackoffWait are disjoint: the latency samples record each
// request's journey minus the time the client itself chose to sleep
// between 429 retries, and that sleep is reported separately — so the
// latency quantiles measure the service, not the client's politeness.
type report struct {
	Target          string          `json:"target"`
	Class           string          `json:"class"`
	Shards          int             `json:"shards"`
	Clients         int             `json:"clients"`
	Requests        int             `json:"requests"`
	DupRatio        float64         `json:"dup_ratio"`
	UniqueJobs      int             `json:"unique_jobs"`
	Waited          bool            `json:"waited"`
	Outcomes        outcomes        `json:"outcomes"`
	Rate429         float64         `json:"rate_429"`
	Latency         quantiles       `json:"latency"`
	BackoffRequests uint64          `json:"backoff_requests"` // submissions that hit at least one 429
	BackoffWait     quantiles       `json:"backoff_wait"`     // client-side 429 backoff sleep, over those submissions
	WallMs          float64         `json:"wall_ms"`
	Throughput      float64         `json:"throughput_rps"`
	Fleet           json.RawMessage `json:"fleet,omitempty"` // the target's /v1/status document, captured after the run
}

func main() {
	var opts options
	flag.StringVar(&opts.target, "url", "", "target base URL (an ftserve backend or router); empty = self-serve")
	flag.IntVar(&opts.shards, "serve", 1, "self-serve mode: shard count for the in-process topology (ignored with -url)")
	flag.IntVar(&opts.clients, "clients", 100, "concurrent clients")
	flag.IntVar(&opts.requests, "requests", 1000, "total submissions across all clients")
	flag.Float64Var(&opts.dupRatio, "dup-ratio", 0.5, "fraction of submissions duplicated from a hot pool of -hot requests")
	flag.IntVar(&opts.hotPool, "hot", 8, "size of the hot duplicate pool")
	flag.Int64Var(&opts.seed, "seed", 1, "schedule seed: the request mix is a pure function of the flags and this")
	flag.IntVar(&opts.ops, "ops", 200, "OpsPerCore per experiment (work each unique job performs)")
	flag.StringVar(&opts.class, "class", "run", "experiment class each submission carries: run (one simulation), tile-death (structural campaign; heavier per job) or interleave (model-checking gate)")
	flag.BoolVar(&opts.wait, "wait", true, "follow each job to completion (end-to-end latency); false measures submission only")
	flag.IntVar(&opts.workers, "workers", 0, "self-serve: workers per backend (0 = GOMAXPROCS)")
	flag.IntVar(&opts.queue, "queue", 64, "self-serve: scheduler queue depth per backend")
	jsonOut := flag.Bool("json", false, "emit the JSON report on stdout")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	rep, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftload:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		fmt.Print(summary(rep))
	}
}

// run executes one load run and returns the report. It is the whole
// harness behind the flag parsing, so tests drive it directly.
func run(opts options) (*report, error) {
	if opts.clients < 1 || opts.requests < 1 || opts.hotPool < 1 {
		return nil, fmt.Errorf("need -clients, -requests, -hot >= 1")
	}
	if opts.dupRatio < 0 || opts.dupRatio > 1 {
		return nil, fmt.Errorf("-dup-ratio must be in [0,1]")
	}
	if opts.class == "" {
		opts.class = "run"
	}
	switch opts.class {
	case "run", "tile-death", "interleave":
	default:
		return nil, fmt.Errorf("-class must be run, tile-death or interleave (got %q)", opts.class)
	}
	shards := 0 // unknown for an external target
	if opts.target == "" {
		target, shutdown, err := selfServe(opts)
		if err != nil {
			return nil, err
		}
		defer shutdown()
		opts.target = target
		shards = opts.shards
	}
	opts.target = strings.TrimSuffix(opts.target, "/")

	bodies, unique := schedule(opts)

	// One shared transport sized for the client count, so concurrency is
	// limited by -clients, not by idle-connection churn.
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        opts.clients,
		MaxIdleConnsPerHost: opts.clients,
	}}

	var (
		wg       sync.WaitGroup
		next     = make(chan string)
		outs     = make([]outcomes, opts.clients)
		lats     = make([][]uint64, opts.clients)
		backoffs = make([][]uint64, opts.clients)
	)
	start := time.Now()
	for c := 0; c < opts.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for body := range next {
				if waited := oneRequest(httpc, opts, body, &outs[c], &lats[c]); waited > 0 {
					backoffs[c] = append(backoffs[c], uint64(waited.Microseconds()))
				}
			}
		}(c)
	}
	for _, b := range bodies {
		next <- b
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)

	rep := &report{
		Target:     opts.target,
		Class:      opts.class,
		Shards:     shards,
		Clients:    opts.clients,
		Requests:   opts.requests,
		DupRatio:   opts.dupRatio,
		UniqueJobs: unique,
		Waited:     opts.wait,
		WallMs:     float64(wall.Nanoseconds()) / 1e6,
	}
	var lat, backoff []uint64
	for c := range outs {
		rep.Outcomes.Accepted += outs[c].Accepted
		rep.Outcomes.Cached += outs[c].Cached
		rep.Outcomes.Rejected += outs[c].Rejected
		rep.Outcomes.Errors += outs[c].Errors
		rep.Outcomes.Failed += outs[c].Failed
		lat = append(lat, lats[c]...)
		backoff = append(backoff, backoffs[c]...)
	}
	attempts := rep.Outcomes.Accepted + rep.Outcomes.Cached + rep.Outcomes.Errors + rep.Outcomes.Rejected
	if attempts > 0 {
		rep.Rate429 = float64(rep.Outcomes.Rejected) / float64(attempts)
	}
	rep.Latency = quantilesOf(lat)
	rep.BackoffRequests = uint64(len(backoff))
	rep.BackoffWait = quantilesOf(backoff)
	if secs := wall.Seconds(); secs > 0 {
		rep.Throughput = float64(opts.requests) / secs
	}
	rep.Fleet = fetchStatus(httpc, opts.target)
	return rep, nil
}

// quantilesOf summarizes samples (sorting them in place) with exact
// nearest-rank percentiles: the p-th percentile is the smallest sample
// with at least ceil(p/100*n) samples at or below it. No samples give the
// zero value.
func quantilesOf(samples []uint64) quantiles {
	n := len(samples)
	if n == 0 {
		return quantiles{}
	}
	slices.Sort(samples)
	rank := func(p int) uint64 {
		r := (p*n + 99) / 100 // ceil(p/100*n), at least 1 for n >= 1
		return samples[r-1]
	}
	var sum uint64
	for _, v := range samples {
		sum += v
	}
	return quantiles{
		P50:  rank(50),
		P95:  rank(95),
		P99:  rank(99),
		Max:  samples[n-1],
		Mean: float64(sum) / float64(n),
	}
}

// fetchStatus captures the target's /v1/status document — the per-shard
// snapshot of a backend, or the router's fleet aggregation — so the report
// shows what the deployment looked like right after the run.
func fetchStatus(httpc *http.Client, target string) json.RawMessage {
	resp, err := httpc.Get(target + "/v1/status")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || !json.Valid(raw) {
		return nil
	}
	var compact bytes.Buffer
	if json.Compact(&compact, raw) != nil {
		return nil
	}
	return json.RawMessage(compact.Bytes())
}

// schedule precomputes the request body for every submission: a seeded
// mix of hot-pool duplicates and unique jobs. Same flags + same seed =
// same schedule, so runs are comparable; unique jobs vary the experiment
// seed, so each one is real work with its own cache key.
func schedule(opts options) (bodies []string, unique int) {
	body := func(seed int) string {
		switch opts.class {
		case "tile-death":
			// A sampled structural campaign per job: heavier than a run but
			// bounded, so the load mix stays a latency test, not a soak.
			return fmt.Sprintf(`{"type":"tile-death","quick":true,"config":{"OpsPerCore":%d,"Seed":%d},"tile_death":{"max_slots_per_type":1}}`, opts.ops, seed)
		case "interleave":
			// The model-checking gate on the canonical tiny shape; the seed
			// keeps each unique job a distinct cache key, and the checker's
			// own two-op default overrides -ops (which would blow the state
			// space up exponentially).
			return fmt.Sprintf(`{"type":"interleave","quick":true,"config":{"Seed":%d}}`, seed)
		}
		return fmt.Sprintf(`{"type":"run","quick":true,"config":{"OpsPerCore":%d,"Seed":%d}}`, opts.ops, seed)
	}
	rng := rand.New(rand.NewSource(opts.seed))
	bodies = make([]string, opts.requests)
	hotUsed := map[int]bool{}
	nextUnique := opts.hotPool
	for i := range bodies {
		if rng.Float64() < opts.dupRatio {
			s := 1 + rng.Intn(opts.hotPool)
			hotUsed[s] = true
			bodies[i] = body(s)
			continue
		}
		nextUnique++
		unique++
		bodies[i] = body(nextUnique)
	}
	return bodies, unique + len(hotUsed)
}

// reqCounter numbers ftload's submissions: each one carries a propagated
// request ID ("l<n>") so its spans and log lines are attributable to this
// client across router and shard.
var reqCounter atomic.Uint64

// oneRequest performs a single submission end-to-end: retry through 429
// backpressure, then (with -wait) poll the job to a terminal state. The
// recorded latency covers the whole journey minus the returned backoff
// wait — the time this client chose to sleep between 429 retries — so the
// latency sample measures the service, not client politeness.
func oneRequest(httpc *http.Client, opts options, body string, out *outcomes, lats *[]uint64) (backoffWait time.Duration) {
	start := time.Now()
	defer func() { *lats = append(*lats, uint64((time.Since(start) - backoffWait).Microseconds())) }()

	reqID := fmt.Sprintf("l%d", reqCounter.Add(1))
	var doc struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	backoff := 2 * time.Millisecond
	for {
		req, err := http.NewRequest(http.MethodPost, opts.target+"/v1/experiments", strings.NewReader(body))
		if err != nil {
			out.Errors++
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(serve.HeaderRequestID, reqID)
		resp, err := httpc.Do(req)
		if err != nil {
			out.Errors++
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			out.Rejected++
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// Back off and resubmit; the cap keeps the retry storm gentle
			// without stalling the run for the server's full Retry-After.
			// The sleep is the client's choice, so it is accounted as
			// backoff wait, not service latency.
			time.Sleep(backoff)
			backoffWait += backoff
			if backoff < 64*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		switch {
		case err != nil || doc.ID == "":
			out.Errors++
			return
		case resp.StatusCode == http.StatusOK:
			out.Cached++
		case resp.StatusCode == http.StatusAccepted:
			out.Accepted++
		default:
			out.Errors++
			return
		}
		break
	}
	if !opts.wait || doc.State == "done" {
		return
	}
	poll := 2 * time.Millisecond
	for doc.State == "queued" || doc.State == "running" || doc.State == "" {
		time.Sleep(poll)
		if poll < 50*time.Millisecond {
			poll *= 2
		}
		resp, err := httpc.Get(opts.target + "/v1/experiments/" + doc.ID)
		if err != nil {
			out.Errors++
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			out.Errors++
			return
		}
	}
	if doc.State != "done" {
		out.Failed++
	}
	return
}

// selfServe stands up the documented scale-out topology in-process: n
// backends sharing one durable cache directory, fronted by the
// consistent-hash router when n > 1. Returns the base URL to load.
func selfServe(opts options) (target string, shutdown func(), err error) {
	dir, err := os.MkdirTemp("", "ftload-cache-*")
	if err != nil {
		return "", nil, err
	}
	var closers []func()
	shutdown = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		os.RemoveAll(dir)
	}
	listen := func(h http.Handler) (string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(l)
		closers = append(closers, func() { srv.Close() })
		return "http://" + l.Addr().String(), nil
	}

	urls := make([]string, opts.shards)
	for i := 0; i < opts.shards; i++ {
		o := serve.Options{Workers: opts.workers, QueueDepth: opts.queue, CacheDir: dir}
		if opts.shards > 1 {
			o.Shard, o.ShardCount = i, opts.shards
		}
		backend, err := serve.New(o)
		if err != nil {
			shutdown()
			return "", nil, err
		}
		if urls[i], err = listen(backend.Handler()); err != nil {
			shutdown()
			return "", nil, err
		}
	}
	if opts.shards == 1 {
		return urls[0], shutdown, nil
	}
	rt, err := serve.NewRouter(urls)
	if err != nil {
		shutdown()
		return "", nil, err
	}
	if target, err = listen(rt.Handler()); err != nil {
		shutdown()
		return "", nil, err
	}
	return target, shutdown, nil
}

// summary renders the human-readable report.
func summary(r *report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ftload: %d requests via %d clients against %s", r.Requests, r.Clients, r.Target)
	if r.Shards > 0 {
		fmt.Fprintf(&b, " (self-served, %d shard(s))", r.Shards)
	}
	fmt.Fprintf(&b, "\n  mix: class %s, %.0f%% duplicates, %d unique jobs\n", r.Class, r.DupRatio*100, r.UniqueJobs)
	fmt.Fprintf(&b, "  outcomes: %d accepted, %d cached, %d failed, %d errors; 429 rate %.1f%%\n",
		r.Outcomes.Accepted, r.Outcomes.Cached, r.Outcomes.Failed, r.Outcomes.Errors, r.Rate429*100)
	fmt.Fprintf(&b, "  latency: p50=%dus p95=%dus p99=%dus max=%dus (429 backoff excluded)\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.Max)
	if r.BackoffRequests > 0 {
		fmt.Fprintf(&b, "  backoff: %d requests waited, p50=%dus p99=%dus max=%dus\n",
			r.BackoffRequests, r.BackoffWait.P50, r.BackoffWait.P99, r.BackoffWait.Max)
	}
	fmt.Fprintf(&b, "  wall: %.0fms  throughput: %.1f req/s\n", r.WallMs, r.Throughput)
	if line := fleetLine(r.Fleet); line != "" {
		fmt.Fprintf(&b, "  fleet: %s\n", line)
	}
	return b.String()
}

// fleetLine summarizes the captured /v1/status document: the router's
// aggregated totals, or a single backend's identity.
func fleetLine(raw json.RawMessage) string {
	if len(raw) == 0 {
		return ""
	}
	var doc struct {
		Router     bool `json:"router"`
		ShardCount int  `json:"shard_count"`
		Totals     struct {
			WorkersBusy int `json:"workers_busy"`
			QueueDepth  int `json:"queue_depth"`
			JobsDone    int `json:"jobs_done"`
			Unreachable int `json:"unreachable"`
		} `json:"totals"`
		Shard    int            `json:"shard"`
		Jobs     map[string]int `json:"jobs"`
		UptimeMs int64          `json:"uptime_ms"`
	}
	if json.Unmarshal(raw, &doc) != nil {
		return ""
	}
	if doc.Router {
		return fmt.Sprintf("%d shard(s), %d done jobs, %d busy workers, %d queued, %d unreachable",
			doc.ShardCount, doc.Totals.JobsDone, doc.Totals.WorkersBusy, doc.Totals.QueueDepth, doc.Totals.Unreachable)
	}
	return fmt.Sprintf("shard %d/%d, %d done jobs, up %dms", doc.Shard, doc.ShardCount, doc.Jobs["done"], doc.UptimeMs)
}
