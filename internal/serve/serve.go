// Package serve is the experiment-serving subsystem: an HTTP JSON API
// that runs this module's paper experiments — single simulations, fault
// sweeps, protocol comparisons, exhaustive coverage campaigns and latency
// profiles — on a bounded worker-pool scheduler, memoizing every result in
// a content-addressed cache.
//
// The cache key is the canonical hash (internal/canon) of the
// fully-resolved request: experiment type, workload, and the complete
// repro.Config after defaulting and overrides. Because every simulation in
// this module is a pure function of that configuration, a result can be
// replayed byte-for-byte forever, and identical submissions arriving
// concurrently coalesce onto one in-flight execution (singleflight) — the
// job's ID simply is the cache key.
//
// Backpressure is explicit: when the scheduler queue is full, POST returns
// 429 with a Retry-After header instead of queueing unboundedly. Progress
// streams live over SSE (GET /v1/experiments/{id}/events) as
// runner.Snapshot JSON. Shutdown is graceful: intake stops (503), queued
// and running jobs drain to completion, and a shutdown deadline forces
// cancellation through the same context plumbing that serves client
// disconnects.
//
// See docs/SERVICE.md for the API walkthrough, cache-key semantics and
// metrics reference; cmd/ftserve is the binary.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/msg"
	"repro/internal/sim"
)

// Options configures a Server. The zero value is usable.
type Options struct {
	// Workers bounds concurrently-executing experiments (default:
	// GOMAXPROCS). Each worker runs one experiment at a time.
	Workers int
	// QueueDepth bounds experiments queued behind the workers (default
	// 64). A submission beyond that gets 429 + Retry-After.
	QueueDepth int
	// Parallelism is the Config.Parallelism applied to every executed
	// campaign (default 1: each campaign runs serially and concurrency
	// comes from Workers; negative fans each campaign across all cores).
	// Results are byte-identical at every setting — it is pure execution
	// policy, never part of the cache key.
	Parallelism int
	// RetryAfter is the hint returned with 429 responses (default 2s).
	RetryAfter time.Duration

	// CacheDir, when non-empty, makes the content-addressed cache durable:
	// completed results spill to one file per job ID under this directory
	// and are loaded lazily on lookup, so a warm cache survives restarts.
	// The directory may be shared by several servers (the shards of a
	// multi-worker deployment): entries are written atomically and are
	// immutable-by-content, so concurrent writers are harmless.
	CacheDir string
	// CacheMaxBytes caps the durable store; past it, a write triggers an
	// oldest-access-first eviction pass. ≤0 means unbounded.
	CacheMaxBytes int64

	// Shard/ShardCount place this server in a sharded topology: the server
	// executes only job IDs with ShardOf(id, ShardCount) == Shard and
	// answers 421 (plus the owner's index) for misdirected submissions —
	// unless the shared durable cache already holds the result, which any
	// shard replays. ShardCount ≤ 1 disables sharding.
	Shard, ShardCount int

	// Logger receives structured request/job logs (trace, request and
	// shard IDs on every record). nil discards them.
	Logger *slog.Logger

	// now and beforeRun are test hooks: a fake clock, and a gate invoked
	// by a worker right before it starts executing a job.
	now       func() time.Time
	beforeRun func(*job)
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = 1
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = 2 * time.Second
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	if opts.Logger == nil {
		opts.Logger = discardLogger()
	}
	return opts
}

// discardLogger returns a logger that drops every record.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// Server is the experiment-serving HTTP handler plus its scheduler and
// cache. Create with New, serve via Handler, stop with Shutdown.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	sched *scheduler
	met   *metrics
	store *diskStore // nil when Options.CacheDir is empty

	// baseCtx parents every job context; cancelJobs aborts all in-flight
	// work (forced shutdown past the drain deadline).
	baseCtx    context.Context
	cancelJobs context.CancelCauseFunc

	log     *slog.Logger
	started time.Time     // process start, for /v1/status uptime
	reqSeq  atomic.Uint64 // generated request-ID sequence

	mu       sync.Mutex
	jobs     map[string]*job // content address → job (the result cache)
	order    []string        // insertion order, for listing
	draining bool
}

// New builds a Server. It fails only when Options.CacheDir is set and the
// durable store cannot be created there.
func New(opts Options) (*Server, error) {
	s := &Server{
		opts: opts.withDefaults(),
		mux:  http.NewServeMux(),
		met:  newMetrics(),
		jobs: make(map[string]*job),
	}
	if s.opts.ShardCount > 1 && (s.opts.Shard < 0 || s.opts.Shard >= s.opts.ShardCount) {
		return nil, fmt.Errorf("shard %d out of range for %d shards", s.opts.Shard, s.opts.ShardCount)
	}
	if s.opts.CacheDir != "" {
		store, err := newDiskStore(s.opts.CacheDir, s.opts.CacheMaxBytes)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	s.baseCtx, s.cancelJobs = context.WithCancelCause(context.Background())
	s.sched = newScheduler(s.opts.Workers, s.opts.QueueDepth, s.execute)
	s.log = s.opts.Logger.With("shard", s.opts.Shard)
	s.started = s.opts.now()

	s.mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/experiments", s.handleList)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/experiments/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/experiments/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	registerPprof(s.mux)
	return s, nil
}

// registerPprof exposes the net/http/pprof profiling endpoints on a custom
// mux (the package's init only registers on http.DefaultServeMux).
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops intake immediately (new submissions get 503, /healthz
// degrades) and drains: queued and running jobs run to completion. If ctx
// expires first, every in-flight job is cancelled through its context —
// the same path a client disconnect takes — and Shutdown returns ctx's
// error once the workers exit. A drained result is never corrupted: jobs
// either finish and cache normally or fail with a cancellation error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.log.Info("shutdown: draining")

	done := make(chan struct{})
	go func() {
		s.sched.drain()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("shutdown: drained")
		return nil
	case <-ctx.Done():
		s.log.Warn("shutdown: deadline passed, cancelling in-flight jobs")
		s.cancelJobs(fmt.Errorf("ftserve shutdown deadline: %w", context.Cause(ctx)))
		<-done
		return ctx.Err()
	}
}

// CacheStats returns (hits, misses, rejected) — exposed for tests and the
// binary's shutdown log; /metrics carries the same numbers.
func (s *Server) CacheStats() (hits, misses, rejected uint64) {
	return s.met.snapshot()
}

// handleSubmit is POST /v1/experiments: resolve, content-address, coalesce
// or schedule. Every submission carries a trace context (svctrace.go): the
// response names the trace (= job) ID and request ID, and the spans the
// submission recorded become part of the job's service trace.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t0 := s.opts.now()
	tc := s.newTraceCtx(r.Header.Get, t0)
	w.Header().Set(HeaderRequestID, tc.reqID)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.log.Warn("submit rejected", "request_id", tc.reqID, "status", http.StatusBadRequest, "error", err.Error())
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	req, err := resolveRequest(body)
	if err != nil {
		s.log.Warn("submit rejected", "request_id", tc.reqID, "status", http.StatusBadRequest, "error", err.Error())
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := req.key()
	if err != nil {
		s.log.Warn("submit rejected", "request_id", tc.reqID, "status", http.StatusBadRequest, "error", err.Error())
		writeError(w, http.StatusBadRequest, fmt.Sprintf("hashing request: %v", err))
		return
	}
	w.Header().Set(HeaderTraceID, key)
	admitted := s.opts.now()
	tc.addSpan(SpanAdmission, t0, admitted, svcAttr{"type", req.Type})
	logSubmit := func(outcome string, code int) {
		s.log.Info("submit", "request_id", tc.reqID, "trace_id", key,
			"type", req.Type, "outcome", outcome, "status", code)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if existing, ok := s.jobs[key]; ok {
		st := existing.currentState()
		if st != stateFailed && st != stateCanceled {
			// Cache hit: done jobs replay their bytes, queued/running jobs
			// coalesce — either way no new execution.
			s.mu.Unlock()
			s.met.hit()
			code, outcome := http.StatusOK, "cached"
			if st != stateDone {
				code, outcome = http.StatusAccepted, "coalesced"
			}
			tc.addSpan(SpanCacheLookup, admitted, s.opts.now(), svcAttr{"outcome", "hit"})
			existing.addReqTrace(tc.trace(outcome, false))
			logSubmit(outcome, code)
			writeJSON(w, code, existing.status(true))
			return
		}
		// Failed and cancelled runs are not memoized: fall through and
		// replace the record with a fresh attempt.
	}
	s.mu.Unlock()

	// Not in memory: a durable-store entry (possibly written by another
	// shard, or by this server before a restart) replays without any
	// execution, from any shard.
	if loaded := s.loadFromDisk(key); loaded != nil {
		s.met.hit()
		s.met.diskHit()
		tc.addSpan(SpanCacheLookup, admitted, s.opts.now(), svcAttr{"outcome", "hit-disk"})
		loaded.addReqTrace(tc.trace("cached-disk", false))
		logSubmit("cached-disk", http.StatusOK)
		writeJSON(w, http.StatusOK, loaded.status(true))
		return
	}

	// A genuinely new execution must land on the owning shard; the router
	// sends it there, a directly-addressed backend refuses with 421 naming
	// the owner.
	if n := s.opts.ShardCount; n > 1 {
		if owner := ShardOf(key, n); owner != s.opts.Shard {
			s.met.misdirect()
			logSubmit("misdirected", http.StatusMisdirectedRequest)
			writeJSON(w, http.StatusMisdirectedRequest, map[string]any{
				"error":       fmt.Sprintf("job %s is owned by shard %d/%d (this is shard %d)", key, owner, n, s.opts.Shard),
				"shard":       owner,
				"shard_count": n,
			})
			return
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	// Re-check membership: the lock was dropped for the disk probe, and a
	// concurrent duplicate may have scheduled meanwhile.
	if existing, ok := s.jobs[key]; ok {
		if st := existing.currentState(); st != stateFailed && st != stateCanceled {
			s.mu.Unlock()
			s.met.hit()
			code, outcome := http.StatusOK, "cached"
			if st != stateDone {
				code, outcome = http.StatusAccepted, "coalesced"
			}
			tc.addSpan(SpanCacheLookup, admitted, s.opts.now(), svcAttr{"outcome", "hit"})
			existing.addReqTrace(tc.trace(outcome, false))
			logSubmit(outcome, code)
			writeJSON(w, code, existing.status(true))
			return
		}
	}
	j := newJob(key, req, s.opts.now())
	tc.addSpan(SpanCacheLookup, admitted, s.opts.now(), svcAttr{"outcome", "miss"})
	j.addReqTrace(tc.trace("executed", true))
	if _, replaced := s.jobs[key]; !replaced {
		s.order = append(s.order, key)
	}
	s.jobs[key] = j
	s.mu.Unlock()

	if err := s.sched.trySubmit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, key)
		s.dropFromOrder(key)
		s.mu.Unlock()
		switch {
		case errors.Is(err, ErrQueueFull):
			s.met.reject()
			logSubmit("rejected-queue-full", http.StatusTooManyRequests)
			w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.RetryAfter.Seconds())))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("scheduler queue full (%d queued); retry later", s.sched.capacity()))
		default:
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		}
		return
	}
	s.met.miss()
	logSubmit("executed", http.StatusAccepted)
	w.Header().Set("Location", "/v1/experiments/"+key)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

func (s *Server) dropFromOrder(key string) {
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// handleGet is GET /v1/experiments/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookupOrLoad(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such experiment")
		return
	}
	writeJSON(w, http.StatusOK, j.status(false))
}

// handleList is GET /v1/experiments: every tracked job, oldest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	docs := make([]statusDoc, 0, len(s.order))
	for _, key := range s.order {
		if j := s.jobs[key]; j != nil {
			docs = append(docs, j.status(false))
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"experiments": docs})
}

// handleTrace is GET /v1/experiments/{id}/trace?format=jsonl|chrome|spans,
// reusing the fttrace exporters on the retained Result of a "run"
// experiment.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupOrLoad(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such experiment")
		return
	}
	// format=service is the wall-clock service span tree (svctrace.go):
	// available for every experiment type, in every state — it describes
	// the request's journey, not the simulation's.
	if r.URL.Query().Get("format") == "service" {
		w.Header().Set("Content-Type", "application/json")
		writeServiceTrace(w, j, s.opts.Shard, s.opts.ShardCount)
		return
	}
	res, exports, err := j.traceData()
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	// Live jobs export from the retained Result; jobs reloaded from the
	// durable store serve the byte-identical exports rendered when the run
	// finished.
	writeOrReplay := func(contentType string, live func(io.Writer), stored []byte, missing string) {
		if res != nil && live != nil {
			w.Header().Set("Content-Type", contentType)
			live(w)
			return
		}
		if len(stored) > 0 {
			w.Header().Set("Content-Type", contentType)
			w.Write(stored)
			return
		}
		writeError(w, http.StatusConflict, missing)
	}
	const noEvents = `no events retained; submit with "config":{"RecordEvents":true}`
	const noSpans = `no spans recorded; submit with "config":{"RecordSpans":true}`
	switch format := r.URL.Query().Get("format"); format {
	case "jsonl":
		var live func(io.Writer)
		if res != nil && len(res.Events()) > 0 {
			live = func(w io.Writer) { res.WriteEventsJSONL(w) }
		}
		var stored []byte
		if exports != nil {
			stored = exports.eventsJSONL
		}
		writeOrReplay("application/jsonl", live, stored, noEvents)
	case "chrome":
		var live func(io.Writer)
		if res != nil && len(res.Events()) > 0 {
			live = func(w io.Writer) { res.WriteChromeTrace(w) }
		}
		var stored []byte
		if exports != nil {
			stored = exports.chromeTrace
		}
		writeOrReplay("application/json", live, stored, noEvents)
	case "spans":
		var live func(io.Writer)
		if res != nil && len(res.Spans()) > 0 {
			live = func(w io.Writer) { res.WriteSpansJSONL(w) }
		}
		var stored []byte
		if exports != nil {
			stored = exports.spansJSONL
		}
		writeOrReplay("application/jsonl", live, stored, noSpans)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown trace format %q (want jsonl, chrome, spans or service)", format))
	}
}

// handleMetrics is GET /metrics (Prometheus text exposition format).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	byState := make(map[string]int)
	s.mu.Lock()
	for _, j := range s.jobs {
		byState[j.currentState()]++
	}
	s.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	msgGets, msgMisses := msg.PoolStats()
	simPushes, simGrows := sim.HeapStats()
	info := renderInfo{
		jobsByState: byState,
		queueDepth:  s.sched.depth(),
		queueCap:    s.sched.capacity(),
		running:     s.sched.runningCount(),
		shard:       s.opts.Shard,
		shardCount:  s.opts.ShardCount,
		diskBytes:   -1,
		goroutines:  runtime.NumGoroutine(),
		heapAlloc:   ms.HeapAlloc,
		gcPauseNs:   ms.PauseTotalNs,
		gcCycles:    ms.NumGC,
		goVersion:   runtime.Version(),
		version:     Version(),
		msgGets:     msgGets,
		msgMisses:   msgMisses,
		simPushes:   simPushes,
		simGrows:    simGrows,
	}
	if s.store != nil {
		info.diskBytes = s.store.sizeBytes()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.render(w, info)
}

// handleHealthz is GET /healthz: 200 while serving, 503 while draining.
// Sharded servers report their identity so an operator (or the router)
// can tell which member of the topology answered.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if n := s.opts.ShardCount; n > 1 {
		fmt.Fprintf(w, "ok shard=%d/%d\n", s.opts.Shard, n)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// lookupOrLoad checks memory first, then faults the job in from the
// durable store — the lazy-load path that makes a warm cache directory
// equivalent to a warm process.
func (s *Server) lookupOrLoad(id string) *job {
	if j := s.lookup(id); j != nil {
		return j
	}
	if j := s.loadFromDisk(id); j != nil {
		s.met.diskHit()
		return j
	}
	return nil
}

// loadFromDisk reads a durable-store entry and registers it as a done job.
// Corrupt entries are quarantined and read as a miss. If a concurrent
// submission registered the key while the disk was being read, the
// in-memory job wins (it is the same content or fresher).
func (s *Server) loadFromDisk(id string) *job {
	if s.store == nil {
		return nil
	}
	env, quarantined, err := s.store.get(id)
	if quarantined {
		s.met.quarantine()
		return nil
	}
	if err != nil {
		s.met.storeError()
		return nil
	}
	if env == nil {
		return nil
	}
	j := jobFromEnvelope(env)
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[id]; ok {
		return existing
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// execute runs one job on a worker goroutine, recording the execution-side
// service spans (queue_wait, execute, encode, store) as it goes. The
// durable-store spill happens before finish wakes the waiters, so a
// finished job's service trace is complete.
func (s *Server) execute(j *job) {
	if hook := s.opts.beforeRun; hook != nil {
		hook(j)
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	start := s.opts.now()
	j.start(start, cancel)
	j.addExecSpan(svcSpan{name: SpanQueueWait, start: j.createdAt(), end: start})
	s.log.Info("job start", "trace_id", j.id, "type", j.req.Type, "workload", j.req.Workload)

	payload, res, err := s.runExperiment(ctx, j)
	execEnd := s.opts.now()
	j.addExecSpan(svcSpan{name: SpanExecute, start: start, end: execEnd,
		attrs: []svcAttr{{"type", j.req.Type}, {"workload", j.req.Workload}}})

	var resultJSON json.RawMessage
	if err == nil {
		// The central encode: json.Marshal of the per-type payload is
		// byte-identical to what each experiment case used to produce.
		resultJSON, err = json.Marshal(payload)
		if err == nil {
			j.addExecSpan(svcSpan{name: SpanEncode, start: execEnd, end: s.opts.now(),
				attrs: []svcAttr{{"bytes", strconv.Itoa(len(resultJSON))}}})
		}
	}
	state := stateDone
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
		state = stateFailed
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			state = stateCanceled
		}
		resultJSON, res = nil, nil
	}
	var exports *traceExports
	if state == stateDone && s.store != nil {
		exports = renderExports(res)
	}

	// Spill the finished result to the durable store (best-effort: a
	// failed spill serves from memory and is retried by whichever future
	// execution recomputes the identical bytes). The spill runs before
	// finish wakes the waiters so the store span is part of the trace by
	// the time anyone can observe the job as done; the envelope carries
	// the same finished timestamp the in-memory job will.
	finished := s.opts.now()
	if state == stateDone && s.store != nil {
		env := j.envelopeFor(resultJSON, exports, finished)
		storeStart := s.opts.now()
		evicted, perr := s.store.put(env)
		j.addExecSpan(svcSpan{name: SpanStore, start: storeStart, end: s.opts.now()})
		if perr != nil {
			s.met.storeError()
			s.log.Warn("durable spill failed", "trace_id", j.id, "error", perr.Error())
		} else if evicted > 0 {
			s.met.evict(evicted)
			s.log.Info("durable store evicted", "trace_id", j.id, "entries", evicted)
		}
	}

	j.finish(finished, state, resultJSON, res, exports, errMsg)
	s.met.observe(j.req.Type, state, finished.Sub(start))
	if errMsg != "" {
		s.log.Warn("job finished", "trace_id", j.id, "type", j.req.Type, "state", state,
			"wall_ms", finished.Sub(start).Milliseconds(), "error", errMsg)
	} else {
		s.log.Info("job finished", "trace_id", j.id, "type", j.req.Type, "state", state,
			"wall_ms", finished.Sub(start).Milliseconds())
	}
}

// runExperiment runs the job's class and returns the result payload the
// worker marshals into the memoized bytes: deterministic for a
// deterministic configuration (json.Marshal sorts map keys), so a cached
// replay is byte-identical to the live run that produced it, at every
// parallelism level.
func (s *Server) runExperiment(ctx context.Context, j *job) (payload any, res *repro.Result, err error) {
	cfg := j.req.Config
	cfg.Parallelism = s.opts.Parallelism
	if cfg.Parallelism < 0 {
		cfg.Parallelism = 0 // 0 = all cores, in runner.MapContext's convention
	}
	c, err := classOf(j.req.Type)
	if err != nil {
		return nil, nil, err
	}
	if c.steps > 0 {
		j.publishCounts(0, c.steps)
	}
	payload, res, err = c.run(ctx, cfg, j)
	if err == nil && c.steps > 0 {
		j.publishCounts(c.steps, c.steps)
	}
	return payload, res, err
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError writes {"error": msg}.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
