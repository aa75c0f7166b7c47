package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// newTestServer builds a Server plus an httptest frontend, torn down with
// the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// postJSON submits a body and decodes the response document.
func postJSON(t *testing.T, ts *httptest.Server, body string) (int, statusDoc, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var doc statusDoc
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("decoding response %s: %v", raw, err)
		}
	}
	return resp.StatusCode, doc, resp.Header
}

// getStatus fetches an experiment's status document.
func getStatus(t *testing.T, ts *httptest.Server, id string) (int, statusDoc) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/experiments/" + id)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var doc statusDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
	}
	return resp.StatusCode, doc
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, ts *httptest.Server, id, want string) statusDoc {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, doc := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", id, code)
		}
		if doc.State == want {
			return doc
		}
		if doc.State == stateFailed && want != stateFailed {
			t.Fatalf("job %s failed: %s", id, doc.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return statusDoc{}
}

const quickRun = `{"type":"run","quick":true,"config":{"OpsPerCore":200}}`

// getCode GETs a URL and returns just the status code.
func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown type", `{"type":"explode"}`},
		{"unknown workload", `{"type":"run","workload":"mystery"}`},
		{"unknown request field", `{"type":"run","frobnicate":1}`},
		{"unknown config field", `{"type":"run","config":{"Bogus":3}}`},
		{"sweep without rates", `{"type":"sweep"}`},
		{"rates on non-sweep", `{"type":"run","rates":[1,2]}`},
		{"coverage params on run", `{"type":"run","coverage":{"seed":1}}`},
		{"tile_death params on run", `{"type":"run","tile_death":{"include_links":true}}`},
		{"trailing data", `{"type":"run"} {"x":1}`},
		{"duplicate member", `{"type":"run","TYPE":"compare","quick":true}`},
		{"duplicate config member", `{"type":"run","config":{"OpsPerCore":1,"opspercore":2}}`},
	}
	for _, tc := range cases {
		code, _, _ := postJSON(t, ts, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if code, _ := getStatus(t, ts, "sha256:nope"); code != http.StatusNotFound {
		t.Errorf("GET unknown id: status %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/v1/experiments/sha256:nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events on unknown id: status %d, want 404", resp.StatusCode)
	}
}

func TestRunExperimentAndTrace(t *testing.T) {
	// Gate the worker so the job is observably pending for the 409 check
	// below; a quick run can otherwise finish before the GET arrives.
	gate := make(chan struct{})
	opts := Options{Workers: 1}
	opts.beforeRun = func(*job) { <-gate }
	_, ts := newTestServer(t, opts)
	body := `{"type":"run","quick":true,"config":{"OpsPerCore":200,"RecordEvents":true,"RecordSpans":true}}`
	code, doc, hdr := postJSON(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if !strings.HasPrefix(doc.ID, "sha256:") {
		t.Fatalf("job id %q is not a content address", doc.ID)
	}
	if loc := hdr.Get("Location"); loc != "/v1/experiments/"+doc.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Trace before completion is a conflict, not a 404.
	if code := getCode(t, ts.URL+"/v1/experiments/"+doc.ID+"/trace?format=jsonl"); code != http.StatusConflict {
		t.Fatalf("trace while pending: status %d, want 409", code)
	}
	close(gate)

	final := waitState(t, ts, doc.ID, stateDone)
	var res repro.Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("result does not decode as a Result: %v", err)
	}
	if res.Cycles == 0 || res.Protocol == "" {
		t.Fatalf("implausible result: %+v", res)
	}

	for format, wantLine := range map[string]string{"jsonl": `"type"`, "chrome": `"traceEvents"`, "spans": `"phases"`} {
		resp, err := http.Get(ts.URL + "/v1/experiments/" + doc.ID + "/trace?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace format=%s: status %d: %s", format, resp.StatusCode, raw)
		}
		if !bytes.Contains(raw, []byte(wantLine)) {
			t.Errorf("trace format=%s output missing %q:\n%.200s", format, wantLine, raw)
		}
	}
	if code := getCode(t, ts.URL+"/v1/experiments/"+doc.ID+"/trace?format=avi"); code != http.StatusBadRequest {
		t.Fatalf("unknown trace format: status %d, want 400", code)
	}
}

func TestTraceOnlyForRuns(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, doc, _ := postJSON(t, ts, `{"type":"compare","quick":true,"config":{"OpsPerCore":100}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	waitState(t, ts, doc.ID, stateDone)
	if code := getCode(t, ts.URL+"/v1/experiments/"+doc.ID+"/trace?format=jsonl"); code != http.StatusConflict {
		t.Fatalf("trace on compare: status %d, want 409", code)
	}
}

// TestConcurrentDuplicateSweepCoalesces is the headline cache test: the
// same sweep submitted by many concurrent callers executes exactly once,
// and every caller reads byte-identical result JSON.
func TestConcurrentDuplicateSweepCoalesces(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	body := `{"type":"sweep","quick":true,"rates":[0,100],"config":{"OpsPerCore":200}}`

	const callers = 8
	var wg sync.WaitGroup
	ids := make([]string, callers)
	codes := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			var doc statusDoc
			json.NewDecoder(resp.Body).Decode(&doc)
			ids[i], codes[i] = doc.ID, resp.StatusCode
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("caller %d got id %s, caller 0 got %s", i, ids[i], ids[0])
		}
	}
	hits, misses, _ := s.CacheStats()
	if misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 (one execution)", misses)
	}
	if hits != callers-1 {
		t.Fatalf("cache hits = %d, want %d", hits, callers-1)
	}

	waitState(t, ts, ids[0], stateDone)
	var first json.RawMessage
	for i := 0; i < callers; i++ {
		_, doc := getStatus(t, ts, ids[0])
		if doc.State != stateDone || len(doc.Result) == 0 {
			t.Fatalf("read %d: state %s, result %d bytes", i, doc.State, len(doc.Result))
		}
		if first == nil {
			first = doc.Result
		} else if !bytes.Equal(first, doc.Result) {
			t.Fatalf("read %d returned different result bytes", i)
		}
	}

	// A later identical submission replays the memoized bytes with 200.
	code, doc, _ := postJSON(t, ts, body)
	if code != http.StatusOK || !doc.Cached || !bytes.Equal(doc.Result, first) {
		t.Fatalf("replay: code=%d cached=%v identical=%v", code, doc.Cached, bytes.Equal(doc.Result, first))
	}
}

func TestQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	opts := Options{Workers: 1, QueueDepth: 1, RetryAfter: 7 * time.Second}
	started := make(chan struct{}, 4)
	opts.beforeRun = func(*job) {
		started <- struct{}{}
		<-gate
	}
	s, ts := newTestServer(t, opts)
	defer close(gate)

	// Job A occupies the worker (blocked at the gate), job B the one queue
	// slot; C has nowhere to go.
	if code, _, _ := postJSON(t, ts, `{"type":"run","quick":true,"config":{"OpsPerCore":201}}`); code != http.StatusAccepted {
		t.Fatalf("A: status %d", code)
	}
	<-started
	if code, _, _ := postJSON(t, ts, `{"type":"run","quick":true,"config":{"OpsPerCore":202}}`); code != http.StatusAccepted {
		t.Fatalf("B: status %d", code)
	}
	code, _, hdr := postJSON(t, ts, `{"type":"run","quick":true,"config":{"OpsPerCore":203}}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("C: status %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}
	if _, _, rejected := s.CacheStats(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	// The rejected submission left no cache entry: once capacity frees up
	// the same request is accepted.
	if code, _ := getStatus(t, ts, mustKey(t, `{"type":"run","quick":true,"config":{"OpsPerCore":203}}`)); code != http.StatusNotFound {
		t.Fatalf("rejected job still tracked: status %d", code)
	}
}

// mustKey resolves a request body to its cache key.
func mustKey(t *testing.T, body string) string {
	t.Helper()
	req, err := resolveRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	key, err := req.key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events off an SSE stream until the "done" event or EOF.
func readSSE(r io.Reader) []sseEvent {
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "done" {
					return events
				}
			}
			cur = sseEvent{}
		}
	}
	return events
}

func TestSSEProgressDuringRun(t *testing.T) {
	gate := make(chan struct{})
	opts := Options{Workers: 1}
	opts.beforeRun = func(*job) { <-gate }
	s, ts := newTestServer(t, opts)

	code, doc, _ := postJSON(t, ts, `{"type":"sweep","quick":true,"rates":[0,50,100],"config":{"OpsPerCore":200}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/experiments/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Only release the worker once the SSE subscription is registered, so
	// the stream observably overlaps the run.
	j := s.lookup(doc.ID)
	deadline := time.Now().Add(30 * time.Second)
	for {
		j.mu.Lock()
		n := len(j.subs)
		j.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE subscription never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)

	events := readSSE(resp.Body)
	var progress int
	var done *sseEvent
	for i := range events {
		switch events[i].name {
		case "progress":
			progress++
			var snap struct {
				Done  int `json:"done"`
				Total int `json:"total"`
			}
			if err := json.Unmarshal([]byte(events[i].data), &snap); err != nil {
				t.Fatalf("progress event is not Snapshot JSON: %v (%s)", err, events[i].data)
			}
			if snap.Total != 3 {
				t.Fatalf("progress total = %d, want 3 sweep points", snap.Total)
			}
		case "done":
			done = &events[i]
		}
	}
	if progress == 0 {
		t.Fatal("no progress events arrived during the run")
	}
	if done == nil {
		t.Fatal("stream ended without a done event")
	}
	var final statusDoc
	if err := json.Unmarshal([]byte(done.data), &final); err != nil {
		t.Fatalf("done event payload: %v", err)
	}
	if final.State != stateDone || len(final.Result) == 0 {
		t.Fatalf("done event state=%s result=%d bytes", final.State, len(final.Result))
	}
}

// TestGracefulShutdownDrainsCoverage verifies the acceptance scenario:
// shutdown while a coverage campaign is mid-flight waits for it and the
// memoized report is intact.
func TestGracefulShutdownDrainsCoverage(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	body := `{"type":"coverage","quick":true,"config":{"OpsPerCore":200},"coverage":{"max_slots_per_type":2,"double_fault_samples":2}}`
	code, doc, _ := postJSON(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	waitState(t, ts, doc.ID, stateRunning)

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	_, final := getStatus(t, ts, doc.ID)
	if final.State != stateDone {
		t.Fatalf("after drain, job state = %s (err %q), want done", final.State, final.Error)
	}
	var rep repro.CoverageReport
	if err := json.Unmarshal(final.Result, &rep); err != nil {
		t.Fatalf("drained result does not decode as CoverageReport: %v", err)
	}
	if rep.SlotsTested == 0 || rep.Recovered != rep.SlotsTested-rep.Unfired {
		t.Fatalf("corrupt drained report: tested=%d recovered=%d unfired=%d",
			rep.SlotsTested, rep.Recovered, rep.Unfired)
	}

	// Intake is closed: submissions 503, health degraded.
	if code, _, _ := postJSON(t, ts, quickRun); code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: status %d, want 503", code)
	}
	if code := getCode(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", code)
	}
}

func TestForcedShutdownCancelsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	// Big enough to outlive the shutdown deadline by a wide margin.
	code, doc, _ := postJSON(t, ts, `{"type":"run","quick":true,"config":{"OpsPerCore":5000000}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	waitState(t, ts, doc.ID, stateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("forced shutdown took %v; cancellation did not propagate", elapsed)
	}

	_, final := getStatus(t, ts, doc.ID)
	if final.State != stateCanceled {
		t.Fatalf("state = %s, want canceled (err %q)", final.State, final.Error)
	}
	if len(final.Result) != 0 {
		t.Fatal("cancelled job must not memoize a partial result")
	}
	if !strings.Contains(final.Error, "shutdown") {
		t.Fatalf("error %q does not name the shutdown cause", final.Error)
	}
}

// TestReplayByteIdenticalAcrossParallelism pins the determinism contract:
// servers running campaigns serially and fanned out across all cores
// memoize byte-identical result JSON.
func TestReplayByteIdenticalAcrossParallelism(t *testing.T) {
	_, tsSerial := newTestServer(t, Options{Workers: 1, Parallelism: 1})
	_, tsWide := newTestServer(t, Options{Workers: 1, Parallelism: -1})
	body := `{"type":"sweep","quick":true,"rates":[0,200],"config":{"OpsPerCore":200}}`

	_, a, _ := postJSON(t, tsSerial, body)
	_, b, _ := postJSON(t, tsWide, body)
	if a.ID != b.ID {
		t.Fatalf("cache keys differ across parallelism: %s vs %s", a.ID, b.ID)
	}
	ra := waitState(t, tsSerial, a.ID, stateDone)
	rb := waitState(t, tsWide, b.ID, stateDone)
	if !bytes.Equal(ra.Result, rb.Result) {
		t.Fatal("result bytes differ between Parallelism=1 and all-cores servers")
	}
}

func TestMetricsAndList(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, doc, _ := postJSON(t, ts, quickRun)
	waitState(t, ts, doc.ID, stateDone)
	postJSON(t, ts, quickRun) // a cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"ftserve_cache_hits_total 1",
		"ftserve_cache_misses_total 1",
		`ftserve_jobs{state="done"} 1`,
		`ftserve_executions_total{state="done"} 1`,
		`ftserve_experiment_latency_ms_count{type="run"} 1`,
		"ftserve_queue_capacity 64",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/experiments")
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
	if len(list.Experiments) != 1 || list.Experiments[0].ID != doc.ID {
		t.Fatalf("list = %+v", list.Experiments)
	}

	if code := getCode(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
}

// TestInterleaveExperiment runs the model-checking experiment class end to
// end: submit, wait for completion, and check the memoized document carries
// a passing gate (FtDirCMP exhausted, DirCMP counterexample replayed).
// Identical resubmissions — including ones relying on the normalized
// defaults — must coalesce onto the cached job.
func TestInterleaveExperiment(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"type":"interleave","quick":true}`
	code, doc, _ := postJSON(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	final := waitState(t, ts, doc.ID, stateDone)
	var rep struct {
		Verdict string `json:"verdict"`
		GateErr string `json:"gate_error"`
		Doc     struct {
			Workload string `json:"workload"`
			FtDirCMP struct {
				Exhausted      bool `json:"exhausted"`
				StatesExplored int  `json:"statesExplored"`
			} `json:"ftdircmp"`
			DirCMP struct {
				Violations []struct {
					Kind string `json:"kind"`
				} `json:"violations"`
			} `json:"dircmp"`
		} `json:"doc"`
	}
	if err := json.Unmarshal(final.Result, &rep); err != nil {
		t.Fatalf("result: %v", err)
	}
	if rep.Verdict != "pass" {
		t.Fatalf("gate verdict %q: %s", rep.Verdict, rep.GateErr)
	}
	if rep.Doc.Workload != "handoff" {
		t.Fatalf("defaulted workload %q, want handoff", rep.Doc.Workload)
	}
	if !rep.Doc.FtDirCMP.Exhausted || rep.Doc.FtDirCMP.StatesExplored == 0 {
		t.Fatalf("FtDirCMP exploration: %+v", rep.Doc.FtDirCMP)
	}
	if len(rep.Doc.DirCMP.Violations) == 0 || rep.Doc.DirCMP.Violations[0].Kind != "deadlock" {
		t.Fatalf("DirCMP counterexample: %+v", rep.Doc.DirCMP.Violations)
	}

	// The normalized form of the same request must hit the same cache key.
	explicit := `{"type":"interleave","quick":true,"workload":"handoff","config":{"OpsPerCore":2},"interleave":{"fault_budget":1}}`
	code, doc2, _ := postJSON(t, ts, explicit)
	if code != http.StatusOK || doc2.ID != doc.ID {
		t.Errorf("normalized resubmit: status %d id %s, want 200 with id %s", code, doc2.ID, doc.ID)
	}

	// A full-size configuration is rejected up front, not explored forever.
	code, _, _ = postJSON(t, ts, `{"type":"interleave"}`)
	if code != http.StatusBadRequest {
		t.Errorf("full-size interleave: status %d, want 400", code)
	}
}

func TestFailedJobIsRetriedNotCached(t *testing.T) {
	gate := make(chan struct{})
	opts := Options{Workers: 1}
	opts.beforeRun = func(*job) { <-gate }
	s, ts := newTestServer(t, opts)

	_, doc, _ := postJSON(t, ts, quickRun)
	j := s.lookup(doc.ID)
	if j == nil {
		t.Fatal("job not tracked")
	}
	// Force a cancellation before the run starts executing.
	s.cancelJobs(fmt.Errorf("test-induced cancellation: %w", context.Canceled))
	close(gate)
	waitState(t, ts, doc.ID, stateCanceled)

	// The server's job base context is dead now, so a resubmission would
	// cancel too — but it must at least replace the record and reschedule
	// rather than replay the cancelled state.
	code, doc2, _ := postJSON(t, ts, quickRun)
	if code != http.StatusAccepted || doc2.Cached {
		t.Fatalf("resubmit after cancel: code=%d cached=%v, want fresh 202", code, doc2.Cached)
	}
	if _, misses, _ := s.CacheStats(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (cancelled run not memoized)", misses)
	}
	waitState(t, ts, doc.ID, stateCanceled)
}

// TestNegativeOpsPerCoreFailsJob: a body whose configuration passes
// request validation but that the simulator refuses ends as a failed job
// with the simulator's error, and the shard keeps serving.
func TestNegativeOpsPerCoreFailsJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, doc, _ := postJSON(t, ts, `{"type":"run","quick":true,"config":{"OpsPerCore":-1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d, want 202", code)
	}
	failed := waitState(t, ts, doc.ID, stateFailed)
	if !strings.Contains(failed.Error, "system: negative operations per core -1") {
		t.Fatalf("failed job error = %q", failed.Error)
	}
	code, doc, _ = postJSON(t, ts, `{"type":"run","quick":true,"config":{"OpsPerCore":20}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST after failure: status %d, want 202", code)
	}
	waitState(t, ts, doc.ID, stateDone)
}

// TestTileDeathExperiment runs the structural-fault experiment class end to
// end: submit, wait for completion, and check the memoized report carries
// one tile-death row per tile with every tested slot recovered.
func TestTileDeathExperiment(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"type":"tile-death","quick":true,"config":{"OpsPerCore":20},"tile_death":{"max_slots_per_type":1}}`
	code, doc, _ := postJSON(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	final := waitState(t, ts, doc.ID, stateDone)
	var rep struct {
		SlotsTested int `json:"slotsTested"`
		Recovered   int `json:"recovered"`
		Rows        []struct {
			Type string `json:"type"`
			Mode string `json:"mode"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(final.Result, &rep); err != nil {
		t.Fatalf("result: %v", err)
	}
	if rep.SlotsTested == 0 || rep.Recovered != rep.SlotsTested {
		t.Fatalf("campaign recovered %d/%d", rep.Recovered, rep.SlotsTested)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (one per tile)", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Mode != "tile-death" {
			t.Errorf("row %q mode %q, want tile-death", row.Type, row.Mode)
		}
	}
	// Identical resubmission must replay from cache.
	code, doc2, _ := postJSON(t, ts, body)
	if code != http.StatusOK || doc2.ID != doc.ID {
		t.Errorf("resubmit: status %d id %s, want 200 with id %s", code, doc2.ID, doc.ID)
	}
}
