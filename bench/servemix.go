package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serve-mix drives an in-process ftserve fleet — two shards behind the
// router, sharing one durable cache directory — with an open loop of
// seeded Poisson arrivals at three fixed rates. Most requests replay a
// pre-warmed hot pool from the cache; the rest are unique quick runs that
// queue for the shards' workers and spill to disk. An op is one request;
// latency_ms is the light tier's median and throughput the overload tier's
// completion rate. Over ten runs of one commit the heavy tier's median
// spread by 31–36% (the machine's drifting speed moves its utilization),
// the light tier's by 5–17%, so heavy is reported in the full report only.
//
// Timing follows the open-loop rules: every request is timed from when it
// was due, not from when it was sent. A cache hit (200) ends when its
// response arrives; an execution (202) ends at the server's "finished"
// timestamp, read after the tier from GET /v1/experiments/{id} (the fleet
// shares this process's clock), so no polling rounds the latency.

// The rates and the latency limit were calibrated once on a 2-core
// machine whose fleet completes about 800–1,200 requests/s of this mix
// (README.md has the calibration runs). They are absolute, so a faster
// fleet shows as lower latency and higher throughput, not as more load.
//   - light stays where its median is steady; heavy's p99 mostly meets
//     serveLimit (17 of 21 acceptance runs). Above ~500 requests/s the
//     heavy median wanders further.
//   - overload offers about twice the capacity, so the tier always
//     saturates and its completion rate measures capacity. Nearer
//     capacity the fleet is bistable: at 1,300 requests/s two seeds
//     completed 1,238 and 116 requests/s within a 50 ms limit.
const (
	serveShards     = 2
	serveWorkers    = 1   // per shard
	serveQueueDepth = 512 // per shard: deep enough that overload queues instead of refusing
	serveHotPool    = 8
	serveUniquePct  = 20 // percent of requests that are unique executions
	serveOpsPerCore = 200
	serveLimit      = 100 * time.Millisecond // p99 latency limit: heavy mostly meets it, overload does not
	serveChecked    = 16                     // unique executions compared with a direct repro.Run
)

// serveTier is one fixed-rate phase of the open loop.
type serveTier struct {
	name  string
	rps   float64
	share float64 // of the measurement time; the overload tier's completions run on past it
}

var serveTiers = []serveTier{
	{"light", 150, 0.25},
	{"heavy", 400, 0.25},
	{"overload", 2000, 0.3},
}

// serveRequest is one planned request of a tier.
type serveRequest struct {
	due    time.Duration // from the tier's start
	body   []byte
	unique bool
	seed   uint64 // the unique run's configuration seed
	wl     string
}

// serveResult is what happened to one request.
type serveResult struct {
	status  int
	id      string
	sum     uint64        // FNV-1a of a 200 reply's body
	errBody string        // the body of any other reply
	late    time.Duration // send time minus due time
	latency time.Duration // completion minus due time
	err     error
}

func runServeMix(r *run) error {
	ops, tiers := serveOpsPerCore, serveTiers
	if r.opts.Tiny {
		ops = 20
		tiers = []serveTier{{"light", 40, 0.3}, {"heavy", 80, 0.3}, {"overload", 120, 0.3}}
	}
	senders := runtime.NumCPU()
	r.param("shards", serveShards)
	r.param("workers_per_shard", serveWorkers)
	r.param("queue_depth", serveQueueDepth)
	r.param("hot_pool", serveHotPool)
	r.param("unique_pct", serveUniquePct)
	r.param("ops_per_core", ops)
	r.param("latency_limit_ms", float64(serveLimit.Milliseconds()))
	r.param("connections", senders)
	for _, t := range tiers {
		r.param("rate_rps."+t.name, t.rps)
	}

	hot := make([][]byte, serveHotPool)
	suite := repro.Workloads()
	for i := range hot {
		hot[i] = runBody(suite[i%len(suite)], ops, derive(r.opts.Seed, "serve-mix/hot/"+strconv.Itoa(i)))
	}

	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	var fleets []*fleet
	defer func() {
		for _, f := range fleets {
			f.close()
		}
	}()
	err := r.setup(9, func() error {
		f, err := startFleet(filepath.Join(r.opts.WorkDir, fmt.Sprintf("serve-mix-%d-%d", os.Getpid(), len(fleets))))
		if err != nil {
			return err
		}
		fleets = append(fleets, f)
		return f.warm(client, hot)
	})
	if err != nil {
		return err
	}
	f := fleets[len(fleets)-1]
	for _, old := range fleets[:len(fleets)-1] {
		old.close()
	}
	fleets = fleets[len(fleets)-1:]

	root, endRoot := r.tr.start("serve-mix", 0, 1)
	defer endRoot()
	hits0, misses0, rejected0 := f.cacheStats()
	runtime.GC()
	am := startAllocs()
	var all []serveResult
	var uniques []uniqueCheck
	replies := map[string]uint64{} // job ID → checksum of its first 200 reply
	var late []float64
	latency := map[string][]float64{}
	var throughput float64
	for _, t := range tiers {
		dur := time.Duration(t.share * float64(r.budget))
		plan := planTier(derive(r.opts.Seed, "serve-mix/"+t.name), t, dur, ops, hot)
		tid, endTier := r.tr.start("tier "+t.name, root, 1)
		res, start := sendTier(client, f.routerURL, plan, senders)
		_, endResolve := r.tr.start("resolve executions", tid, 1)
		fmt.Fprintf(r.opts.Log, "serve-mix: %s tier, %d requests\n", t.name, len(plan))
		var lastDone time.Duration // from the tier's start
		for i := range res {
			rq, rs := &plan[i], &res[i]
			r.attempt(1)
			switch {
			case rs.err != nil:
				r.fail("%s request %d: %v", t.name, i, rs.err)
				continue
			case rs.status == http.StatusOK:
				if prev, ok := replies[rs.id]; !ok {
					replies[rs.id] = rs.sum
				} else if prev != rs.sum {
					r.fail("%s request %d: reply for %s differs from an earlier reply", t.name, i, rs.id)
				}
			case rs.status == http.StatusAccepted:
				doc, err := waitJob(client, f.routerURL, rs.id)
				if err != nil {
					r.fail("%s request %d: %v", t.name, i, err)
					continue
				}
				rs.latency = doc.Finished.Sub(start.Add(rq.due))
				if rq.unique && len(uniques) < serveChecked {
					uniques = append(uniques, uniqueCheck{rq.wl, rq.seed, doc.Result})
				}
			default:
				r.fail("%s request %d: HTTP %d: %s", t.name, i, rs.status, rs.errBody)
				continue
			}
			latency[t.name] = append(latency[t.name], float64(rs.latency.Nanoseconds())/1e6)
			late = append(late, float64(rs.late.Nanoseconds())/1e6)
			lastDone = max(lastDone, rq.due+rs.latency)
		}
		endResolve()
		endTier()
		if t.name == "overload" {
			throughput = float64(len(latency[t.name])) / lastDone.Seconds()
		}
		all = append(all, res...)
	}
	b, o := am.per(len(all))
	hits1, misses1, rejected1 := f.cacheStats()

	// Output check: unique executions reproduce a direct repro.Run.
	_, endCheck := r.tr.start("check against repro.Run", root, 1)
	for _, u := range uniques {
		if err := u.check(ops); err != nil {
			r.fail("unique run %s seed %d: %v", u.workload, u.seed, err)
		}
	}
	endCheck()
	if len(uniques) < serveChecked && !r.opts.Tiny {
		r.fail("only %d unique executions to check against repro.Run, want %d", len(uniques), serveChecked)
	}

	r.samples("latency_ms", latency["light"])
	r.set("throughput", throughput)
	r.set("alloc_bytes_per_op", b)
	r.set("allocs_per_op", o)
	r.set("serve.heavy_p50_ms", median(latency["heavy"]))
	r.set("serve.heavy_p99_ms", quantile(sorted(latency["heavy"]), 0.99))
	r.set("serve.overload_p99_ms", quantile(sorted(latency["overload"]), 0.99))
	within := 0
	for _, l := range latency["heavy"] {
		if l <= float64(serveLimit.Milliseconds()) {
			within++
		}
	}
	r.set("serve.heavy_within_limit_ratio", float64(within)/float64(max(len(latency["heavy"]), 1)))
	r.set("gen.late_ms_p99", quantile(sorted(late), 0.99))
	r.set("serve.rejected_429", float64(rejected1-rejected0))
	if n := (hits1 - hits0) + (misses1 - misses0); n > 0 {
		r.set("serve.cache_hit_ratio", float64(hits1-hits0)/float64(n))
	}
	r.set("serve.disk_hits", float64(f.diskHits(client)))

	if r.tr != nil {
		if err := r.servePhases(client, f, all, hot); err != nil {
			return err
		}
		r.routerOverhead(client, f, hot[0])
	}
	return nil
}

// runBody is the request body of one quick run.
func runBody(workload string, ops int, seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"type":"run","quick":true,"workload":%q,"config":{"OpsPerCore":%d,"Seed":%d}}`, workload, ops, seed))
}

// planTier draws a tier's requests: exactly rps×dur arrivals at the
// sorted times of a Poisson process conditioned on that count, exactly
// serveUniquePct of them unique runs at shuffled positions, the rest
// uniform over the hot pool.
func planTier(seed uint64, t serveTier, dur time.Duration, ops int, hot [][]byte) []serveRequest {
	rng := sim.NewRNG(seed)
	n := int(t.rps*dur.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * float64(dur)
	}
	sort.Float64s(dues)
	unique := make([]bool, n)
	for i := 0; i < n*serveUniquePct/100; i++ {
		unique[i] = true
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		unique[i], unique[j] = unique[j], unique[i]
	}
	suite := repro.Workloads()
	plan := make([]serveRequest, n)
	for i := range plan {
		plan[i].due = time.Duration(dues[i])
		if unique[i] {
			wl := suite[rng.Intn(len(suite))]
			s := rng.Uint64()
			plan[i] = serveRequest{due: plan[i].due, body: runBody(wl, ops, s), unique: true, seed: s, wl: wl}
		} else {
			plan[i].body = hot[rng.Intn(len(hot))]
		}
	}
	return plan
}

// sendTier plays a plan against url from `senders` goroutines, each with
// at most one request in flight: a sender takes the next request, sleeps
// until it is due and sends it. When every sender is busy a request goes
// out late; its latency still counts from its due time. It returns the
// results and the tier's start time.
func sendTier(client *http.Client, url string, plan []serveRequest, senders int) ([]serveResult, time.Time) {
	res := make([]serveResult, len(plan))
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				due := start.Add(plan[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				rs := post(client, url+"/v1/experiments", plan[i].body)
				rs.late = sent.Sub(due)
				rs.latency = time.Since(due)
				res[i] = rs
			}
		}()
	}
	wg.Wait()
	return res, start
}

// post submits one experiment and reads the whole reply.
func post(client *http.Client, url string, body []byte) serveResult {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return serveResult{err: err}
	}
	defer resp.Body.Close()
	rs := serveResult{status: resp.StatusCode, id: resp.Header.Get(serve.HeaderTraceID)}
	if resp.StatusCode != http.StatusOK {
		b, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
		rs.errBody, rs.err = strings.TrimSpace(string(b)), err
		return rs
	}
	h := fnv.New64a()
	_, rs.err = io.Copy(h, resp.Body)
	rs.sum = h.Sum64()
	return rs
}

// jobDoc is the part of a job status document the benchmark reads.
type jobDoc struct {
	State    string          `json:"state"`
	Finished time.Time       `json:"finished"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// waitJob reads a job's status until it is finished. It runs after a tier
// has been sent, so its polling never adds to a measured latency.
func waitJob(client *http.Client, url, id string) (*jobDoc, error) {
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := client.Get(url + "/v1/experiments/" + id)
		if err != nil {
			return nil, err
		}
		var doc jobDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", id, err)
		}
		switch doc.State {
		case "done":
			return &doc, nil
		case "queued", "running":
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("job %s still %s after a minute", id, doc.State)
			}
			time.Sleep(time.Millisecond)
		default:
			return nil, fmt.Errorf("job %s ended %s: %s", id, doc.State, doc.Error)
		}
	}
}

// uniqueCheck is one served unique run to compare with a direct run.
type uniqueCheck struct {
	workload string
	seed     uint64
	result   json.RawMessage
}

func (u uniqueCheck) check(ops int) error {
	var got struct {
		Cycles          uint64
		MemoryImageHash uint64
	}
	if err := json.Unmarshal(u.result, &got); err != nil {
		return err
	}
	cfg := repro.QuickConfig()
	cfg.OpsPerCore = ops
	cfg.Seed = u.seed
	want, err := repro.Run(cfg, u.workload)
	if err != nil {
		return err
	}
	if got.Cycles != want.Cycles || got.MemoryImageHash != want.MemoryImageHash {
		return fmt.Errorf("served cycles %d, image %#x; direct run %d, %#x", got.Cycles, got.MemoryImageHash, want.Cycles, want.MemoryImageHash)
	}
	return nil
}

// fleet is an in-process ftserve deployment: shards and a router, each on
// its own loopback listener.
type fleet struct {
	dir       string
	shards    []*serve.Server
	shardURLs []string
	routerURL string
	servers   []*http.Server
	wg        sync.WaitGroup
}

func startFleet(dir string) (*fleet, error) {
	f := &fleet{dir: dir}
	for i := 0; i < serveShards; i++ {
		s, err := serve.New(serve.Options{
			Workers: serveWorkers, QueueDepth: serveQueueDepth, CacheDir: dir,
			Shard: i, ShardCount: serveShards,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards = append(f.shards, s)
		u, err := f.listen(s.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.shardURLs = append(f.shardURLs, u)
	}
	rt, err := serve.NewRouter(f.shardURLs)
	if err != nil {
		f.close()
		return nil, err
	}
	if f.routerURL, err = f.listen(rt.Handler()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// warm submits every hot-pool body, waits until each has executed, and
// checks that a resubmission is a cache hit.
func (f *fleet) warm(client *http.Client, hot [][]byte) error {
	ids := make([]string, len(hot))
	for i, b := range hot {
		rs := post(client, f.routerURL+"/v1/experiments", b)
		if rs.err != nil {
			return rs.err
		}
		if rs.status != http.StatusAccepted && rs.status != http.StatusOK {
			return fmt.Errorf("warm-up submission: HTTP %d: %s", rs.status, rs.errBody)
		}
		ids[i] = rs.id
	}
	for i, id := range ids {
		if _, err := waitJob(client, f.routerURL, id); err != nil {
			return err
		}
		if rs := post(client, f.routerURL+"/v1/experiments", hot[i]); rs.err != nil || rs.status != http.StatusOK {
			return fmt.Errorf("warm-up resubmission of %s: HTTP %d, %v", id, rs.status, rs.err)
		}
	}
	return nil
}

// cacheStats sums the shards' cache counters.
func (f *fleet) cacheStats() (hits, misses, rejected uint64) {
	for _, s := range f.shards {
		h, m, rj := s.CacheStats()
		hits, misses, rejected = hits+h, misses+m, rejected+rj
	}
	return hits, misses, rejected
}

// diskHits sums the shards' ftserve_cache_disk_hits_total gauges.
func (f *fleet) diskHits(client *http.Client) uint64 {
	var total uint64
	for _, u := range f.shardURLs {
		resp, err := client.Get(u + "/metrics")
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "ftserve_cache_disk_hits_total "); ok {
				n, _ := strconv.ParseUint(v, 10, 64)
				total += n
			}
		}
		resp.Body.Close()
	}
	return total
}

// close stops the router and shards — the shards drain their queues — and
// removes the cache directory.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, srv := range f.servers {
		srv.Close()
	}
	for _, s := range f.shards {
		s.Shutdown(ctx)
	}
	f.wg.Wait()
	f.servers, f.shards = nil, nil
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// servePhases reads the service span trees (GET .../trace?format=service)
// of the hot-pool jobs and of up to 64 executed jobs, and reports each
// phase's duration percentiles.
func (r *run) servePhases(client *http.Client, f *fleet, all []serveResult, hot [][]byte) error {
	var ids []string
	seen := map[string]bool{}
	for _, rs := range all {
		if rs.status == http.StatusAccepted && !seen[rs.id] {
			seen[rs.id] = true
			ids = append(ids, rs.id)
		}
	}
	if step := len(ids) / 64; step > 1 {
		var sample []string
		for i := 0; i < len(ids); i += step {
			sample = append(sample, ids[i])
		}
		ids = sample
	}
	for _, b := range hot {
		rs := post(client, f.routerURL+"/v1/experiments", b)
		if rs.err != nil {
			return rs.err
		}
		ids = append(ids, rs.id)
	}
	durs := map[string][]float64{}
	for _, id := range ids {
		resp, err := client.Get(f.routerURL + "/v1/experiments/" + id + "/trace?format=service")
		if err != nil {
			return err
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Cat  string  `json:"cat"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("service trace of %s: %w", id, err)
		}
		for _, e := range doc.TraceEvents {
			if e.Cat == "service" && e.Ph == "X" {
				durs[e.Name] = append(durs[e.Name], e.Dur/1e3)
			}
		}
	}
	for _, p := range serve.ServicePhases() {
		if xs := sorted(durs[p]); len(xs) > 0 {
			r.set("serve."+p+"_ms.p50", quantile(xs, 0.5))
			r.set("serve."+p+"_ms.p99", quantile(xs, 0.99))
		}
	}
	return nil
}

// routerOverhead reports router.proxy_us: the median time of a cache hit
// sent through the router minus that of the same hit sent straight to its
// owning shard, alternating the two.
func (r *run) routerOverhead(client *http.Client, f *fleet, body []byte) {
	rs := post(client, f.routerURL+"/v1/experiments", body)
	if rs.err != nil || rs.status != http.StatusOK {
		r.fail("router overhead probe: HTTP %d, %v", rs.status, rs.err)
		return
	}
	direct := f.shardURLs[serve.ShardOf(rs.id, len(f.shardURLs))]
	var viaRouter, viaShard []float64
	for i := 0; i < 200; i++ {
		for _, u := range []string{f.routerURL, direct} {
			t0 := time.Now()
			rs := post(client, u+"/v1/experiments", body)
			d := float64(time.Since(t0).Nanoseconds()) / 1e3
			if rs.err != nil || rs.status != http.StatusOK {
				r.fail("router overhead probe: HTTP %d, %v", rs.status, rs.err)
				return
			}
			if u == direct {
				viaShard = append(viaShard, d)
			} else {
				viaRouter = append(viaRouter, d)
			}
		}
	}
	r.set("router.proxy_us", median(viaRouter)-median(viaShard))
}
