package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestTopology builds the 2-shard deployment the docs describe: two
// backend servers sharing one durable cache directory, fronted by a
// router. Returns the router frontend plus the backends (for their
// counters).
func newTestTopology(t *testing.T, shards int) (*httptest.Server, []*Server) {
	t.Helper()
	dir := t.TempDir()
	backends := make([]*Server, shards)
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		s, ts := newTestServer(t, Options{Workers: 1, CacheDir: dir, Shard: i, ShardCount: shards})
		backends[i] = s
		urls[i] = ts.URL
	}
	rt, err := NewRouter(urls)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return front, backends
}

// TestRouterCrossShardCoalescing is the sharded version of the headline
// cache test: duplicates submitted concurrently through the router all
// land on the one owning shard and execute exactly once across the whole
// topology.
func TestRouterCrossShardCoalescing(t *testing.T) {
	front, backends := newTestTopology(t, 2)
	body := `{"type":"sweep","quick":true,"rates":[0,100],"config":{"OpsPerCore":200}}`

	const callers = 8
	ids := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(front.URL+"/v1/experiments", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			var doc statusDoc
			json.NewDecoder(resp.Body).Decode(&doc)
			ids[i] = doc.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("caller %d routed to a different job: %s vs %s", i, ids[i], ids[0])
		}
	}

	// Exactly one execution across every shard.
	var totalMisses uint64
	for _, b := range backends {
		_, misses, _ := b.CacheStats()
		totalMisses += misses
	}
	if totalMisses != 1 {
		t.Fatalf("topology-wide misses = %d, want exactly 1", totalMisses)
	}
	owner := ShardOf(ids[0], 2)
	if _, ownerMisses, _ := backends[owner].CacheStats(); ownerMisses != 1 {
		t.Fatalf("owning shard %d misses = %d, want 1", owner, ownerMisses)
	}

	// Reads through the router reach the job wherever it lives.
	waitState(t, front, ids[0], stateDone)
	_, first := getStatus(t, front, ids[0])
	if len(first.Result) == 0 {
		t.Fatal("router GET returned no result")
	}
	// Replay through the router: 200 + identical bytes.
	code, replay, _ := postJSON(t, front, body)
	if code != http.StatusOK || !bytes.Equal(replay.Result, first.Result) {
		t.Fatalf("replay via router: code=%d identical=%v", code, bytes.Equal(replay.Result, first.Result))
	}
}

// TestRouterSpreadsJobsToOwningShards: jobs with different keys execute
// on their respective owners.
func TestRouterSpreadsJobsToOwningShards(t *testing.T) {
	front, backends := newTestTopology(t, 2)
	own0, own1 := shardedBodies(t)

	for _, body := range []string{own0, own1} {
		code, doc, _ := postJSON(t, front, body)
		if code != http.StatusAccepted {
			t.Fatalf("POST: status %d", code)
		}
		waitState(t, front, doc.ID, stateDone)
	}
	for i, b := range backends {
		if _, misses, _ := b.CacheStats(); misses != 1 {
			t.Fatalf("shard %d misses = %d, want 1 (one owned job each)", i, misses)
		}
	}

	// The merged list sees both jobs, each labelled with its shard.
	resp, err := http.Get(front.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Experiments []statusDoc `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Experiments) != 2 {
		t.Fatalf("merged list has %d entries, want 2", len(list.Experiments))
	}
	for _, doc := range list.Experiments {
		if doc.Shard == nil || *doc.Shard != ShardOf(doc.ID, 2) {
			t.Fatalf("list entry %s shard label %v, want %d", doc.ID, doc.Shard, ShardOf(doc.ID, 2))
		}
	}
}

// TestRouterStreamsSSE: the events stream passes through the router with
// live flushing and ends with the done event.
func TestRouterStreamsSSE(t *testing.T) {
	front, _ := newTestTopology(t, 2)
	code, doc, _ := postJSON(t, front, `{"type":"sweep","quick":true,"rates":[0,50,100],"config":{"OpsPerCore":200}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	resp, err := http.Get(front.URL + "/v1/experiments/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(resp.Body)
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("stream via router ended without done: %v", events)
	}
	var final statusDoc
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil || final.State != stateDone {
		t.Fatalf("done payload state=%s err=%v", final.State, err)
	}
}

func TestRouterHealthAndMetrics(t *testing.T) {
	front, _ := newTestTopology(t, 2)
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != "ok router shards=2\n" {
		t.Fatalf("router healthz = %d %q", resp.StatusCode, raw)
	}

	postJSON(t, front, quickRun)
	resp, err = http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{"ftrouter_backends 2", "ftrouter_requests_total{shard="} {
		if !strings.Contains(text, want) {
			t.Errorf("router metrics missing %q", want)
		}
	}
}

// TestRouterReportsDeadBackend: health degrades to 503 naming the dead
// shard; submissions owned by it answer 502.
func TestRouterReportsDeadBackend(t *testing.T) {
	dir := t.TempDir()
	s0, ts0 := newTestServer(t, Options{Workers: 1, CacheDir: dir, Shard: 0, ShardCount: 2})
	_ = s0
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // shard 1 is down
	rt, err := NewRouter([]string{ts0.URL, dead.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), "shard 1") {
		t.Fatalf("healthz with dead shard = %d %q", resp.StatusCode, raw)
	}

	_, own1 := shardedBodies(t)
	resp, err = http.Post(front.URL+"/v1/experiments", "application/json", strings.NewReader(own1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("POST to dead shard via router: status %d, want 502", resp.StatusCode)
	}
}

// TestRouterStatusAggregatesFleet: the router's /v1/status fans out to
// every shard and sums the totals, so one request shows the topology.
func TestRouterStatusAggregatesFleet(t *testing.T) {
	front, _ := newTestTopology(t, 2)
	_, doc, _ := postJSON(t, front, quickRun)
	waitState(t, front, doc.ID, stateDone)

	resp, err := http.Get(front.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var fleet fleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !fleet.Router || fleet.ShardCount != 2 || len(fleet.Shards) != 2 {
		t.Fatalf("fleet identity: %+v", fleet)
	}
	for i, sh := range fleet.Shards {
		if sh.Error != "" || sh.Shard != i || sh.ShardCount != 2 {
			t.Errorf("shard %d entry: %+v", i, sh)
		}
	}
	if fleet.Totals.JobsDone != 1 || fleet.Totals.CacheMisses != 1 || fleet.Totals.Unreachable != 0 {
		t.Errorf("totals after one executed run: %+v", fleet.Totals)
	}
}

// TestRouterStatusSurvivesDeadShard: a dead backend appears as an
// error-bearing entry and is counted unreachable; the rest of the fleet
// still reports.
func TestRouterStatusSurvivesDeadShard(t *testing.T) {
	_, ts0 := newTestServer(t, Options{Workers: 1, Shard: 0, ShardCount: 2})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt, err := NewRouter([]string{ts0.URL, dead.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var fleet fleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fleet.Totals.Unreachable != 1 {
		t.Fatalf("unreachable = %d, want 1", fleet.Totals.Unreachable)
	}
	if fleet.Shards[0].Error != "" || fleet.Shards[1].Error == "" {
		t.Fatalf("error attribution wrong: %+v", fleet.Shards)
	}
}

// TestRouterRetriesMisdirected421: when a backend refuses a submission
// naming a different owner (its -shard flag disagrees with the router's
// map), the router re-proxies the buffered body to the named owner once
// and counts the repair.
func TestRouterRetriesMisdirected421(t *testing.T) {
	own0, _ := shardedBodies(t)

	// Shard 0 of the router's map is misconfigured: it bounces every
	// submission to shard 1. Shard 1 is a real (unsharded) backend that
	// accepts anything.
	bouncer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			writeJSON(w, http.StatusMisdirectedRequest, map[string]any{
				"error": "misconfigured shard", "shard": 1, "shard_count": 2,
			})
			return
		}
		http.NotFound(w, r)
	}))
	defer bouncer.Close()
	s1, ts1 := newTestServer(t, Options{Workers: 1})

	rt, err := NewRouter([]string{bouncer.URL, ts1.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	code, doc, _ := postJSON(t, front, own0)
	if code != http.StatusAccepted {
		t.Fatalf("misdirected submission through router: status %d, want 202 after retry", code)
	}
	waitState(t, ts1, doc.ID, stateDone)
	if _, misses, _ := s1.CacheStats(); misses != 1 {
		t.Fatalf("named owner misses = %d, want 1", misses)
	}

	_, metrics := getBody(t, front.URL+"/metrics")
	if !bytes.Contains(metrics, []byte("ftrouter_retried_421_total 1")) {
		t.Error("router did not count the 421 retry")
	}
}

// TestRouterRelaysUnretryable421: a 421 naming the very shard the router
// already used (or nothing parseable) is relayed to the client untouched —
// retrying the same backend would loop.
func TestRouterRelaysUnretryable421(t *testing.T) {
	own0, _ := shardedBodies(t)
	bouncer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusMisdirectedRequest, map[string]any{
			"error": "self-referential bounce", "shard": 0, "shard_count": 2,
		})
	}))
	defer bouncer.Close()
	_, ts1 := newTestServer(t, Options{Workers: 1})
	rt, err := NewRouter([]string{bouncer.URL, ts1.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/experiments", "application/json", strings.NewReader(own0))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("status %d, want the 421 relayed", resp.StatusCode)
	}
	if !bytes.Contains(raw, []byte("self-referential bounce")) {
		t.Fatalf("421 body not relayed verbatim: %s", raw)
	}
	_, metrics := getBody(t, front.URL+"/metrics")
	if !bytes.Contains(metrics, []byte("ftrouter_retried_421_total 0")) {
		t.Error("self-referential 421 must not count as a retry")
	}
}

// TestRouterSurvivesMidBodyShardFailure: a backend dying mid-response
// truncates that one proxied stream (the client sees the error) without
// wedging the router for subsequent requests.
func TestRouterSurvivesMidBodyShardFailure(t *testing.T) {
	const partial = `{"id":"sha256:truncat`
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			io.WriteString(w, "ok\n")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, partial)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // kill the connection mid-body
	}))
	defer backend.Close()
	rt, err := NewRouter([]string{backend.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/experiments/sha256:whatever")
	if err != nil {
		t.Fatal(err)
	}
	raw, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (headers were sent before the backend died)", resp.StatusCode)
	}
	if !strings.HasPrefix(string(raw), partial) {
		t.Fatalf("streamed prefix lost: %q", raw)
	}
	if readErr == nil && string(raw) != partial {
		t.Fatalf("client saw neither the truncation error nor the exact partial body: %q", raw)
	}

	// The router is still alive and routing.
	if code := getCode(t, front.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("router healthz after mid-body failure: status %d", code)
	}
}

// TestRouterPropagatesTraceContext is the cross-shard tracing e2e: a
// submission through the 2-shard router keeps the caller's request ID,
// returns the trace ID, and the job's service trace records the router
// hop as a proxy span.
func TestRouterPropagatesTraceContext(t *testing.T) {
	front, _ := newTestTopology(t, 2)

	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/experiments", strings.NewReader(quickRun))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderRequestID, "cli-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var doc statusDoc
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST via router: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRequestID); got != "cli-1" {
		t.Errorf("request ID through router = %q, want cli-1", got)
	}
	if got := resp.Header.Get(HeaderTraceID); got != doc.ID {
		t.Errorf("trace ID through router = %q, want %q", got, doc.ID)
	}

	waitState(t, front, doc.ID, stateDone)
	code, trace := getBody(t, front.URL+"/v1/experiments/"+doc.ID+"/trace?format=service")
	if code != http.StatusOK {
		t.Fatalf("service trace via router: status %d", code)
	}
	for _, want := range []string{`"name":"proxy"`, `"via":"router"`, `"request_id":"cli-1"`, `"trace_id":"` + doc.ID + `"`} {
		if !bytes.Contains(trace, []byte(want)) {
			t.Errorf("service trace via router missing %q", want)
		}
	}
}

// TestRouterRejectsBadConfigs mirrors backend validation at the edge.
func TestRouterRejectsBadConfigs(t *testing.T) {
	if _, err := NewRouter(nil); err == nil {
		t.Fatal("NewRouter(nil) should fail")
	}
	if _, err := NewRouter([]string{"not a url"}); err == nil {
		t.Fatal("relative backend URL should fail")
	}
	front, _ := newTestTopology(t, 2)
	resp, err := http.Post(front.URL+"/v1/experiments", "application/json", strings.NewReader(`{"type":"explode"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad submission via router: status %d, want 400", resp.StatusCode)
	}
}

// FuzzMisdirectOwner fuzzes the router's parse of a backend's 421 body,
// which names the shard that owns a misdirected submission. The parse must
// never panic and may name only a shard that exists: 0 <= shard < n. The
// seeds are the 421 bodies a backend's handleSubmit writes for the class
// bodies it does not own, and each must parse to the owner it names.
func FuzzMisdirectOwner(f *testing.F) {
	for _, n := range []int{2, 3, 5} {
		s, err := New(Options{Workers: 1, Shard: 0, ShardCount: n})
		if err != nil {
			f.Fatal(err)
		}
		for _, c := range classBodies {
			owner := ShardOf(c.key, n)
			if owner == 0 {
				continue // shard 0 would run it
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/experiments", strings.NewReader(c.body)))
			if rec.Code != http.StatusMisdirectedRequest {
				f.Fatalf("%s on shard 0/%d: status %d, want 421", c.class, n, rec.Code)
			}
			body := rec.Body.Bytes()
			if got, ok := misdirectOwner(body, n); !ok || got != owner {
				f.Fatalf("421 body %s parsed to shard %d (ok=%v), want %d", body, got, ok, owner)
			}
			f.Add(body, n)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.Shutdown(ctx)
		cancel()
	}
	for _, body := range []string{`{"shard":-1}`, `{"shard":2}`, `{"shard":1e400}`, `{"shard":1.5}`,
		`{"shard":null}`, `{"shard":"1"}`, `{}`, `[]`, ``, `{"shard":1}{"shard":0}`} {
		f.Add([]byte(body), 2)
	}
	f.Add([]byte(`{"shard":0}`), 0)
	f.Add([]byte(`{"shard":0}`), -1)
	f.Fuzz(func(t *testing.T, payload []byte, n int) {
		if shard, ok := misdirectOwner(payload, n); ok && (shard < 0 || shard >= n) {
			t.Fatalf("misdirectOwner(%q, %d) = %d, ok: not a shard", payload, n, shard)
		}
	})
}

// TestRouterReusesShardConnections: the router keeps its connections to a
// shard open between requests. Three rounds of 16 concurrent requests to
// one backend, each round held until all 16 have arrived, must open at
// most 16 backend connections in total; a transport that keeps only two
// idle connections per host opens 14 more every round.
func TestRouterReusesShardConnections(t *testing.T) {
	const concurrent, rounds = 16, 3
	var (
		mu      sync.Mutex
		dials   int
		arrived int
		release = make(chan struct{})
	)
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold each request until its whole round has arrived, so the
		// round really needs 16 connections at once.
		mu.Lock()
		wait := release
		arrived++
		if arrived == concurrent {
			arrived = 0
			close(release)
			release = make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-wait:
		case <-time.After(5 * time.Second):
		}
		writeJSON(w, http.StatusOK, map[string]string{"state": "done"})
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			dials++
			mu.Unlock()
		}
	}
	backend.Start()
	defer backend.Close()

	rt, err := NewRouter([]string{backend.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, _ := getBody(t, front.URL+"/v1/experiments/sha256:00")
				if code != http.StatusOK {
					t.Errorf("proxied read: status %d, want 200", code)
				}
			}()
		}
		wg.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	if dials > concurrent {
		t.Fatalf("router opened %d connections to the shard for %d rounds of %d concurrent requests, want at most %d",
			dials, rounds, concurrent, concurrent)
	}
}
