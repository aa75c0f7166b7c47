package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/canon"
	"repro/internal/runner"
)

// Request is the POST /v1/experiments body: an experiment type plus the
// parameters that resolve it into concrete simulations. Unknown fields are
// rejected. See docs/SERVICE.md for the full schema.
type Request struct {
	// Type names the experiment class: "run", "sweep", "compare",
	// "coverage", "tile-death", "interleave" or "profile" (class.go).
	Type string `json:"type"`
	// Workload names one of repro.Workloads() or repro.WorkloadExtras();
	// default "uniform" ("handoff" for type "interleave").
	Workload string `json:"workload,omitempty"`
	// Quick starts from repro.QuickConfig (the 2x2 system) instead of
	// DefaultConfig (the paper's Table-4 4x4 system).
	Quick bool `json:"quick,omitempty"`
	// Config holds partial repro.Config overrides, applied on top of the
	// base selected by Quick. Field names are the Go names ("OpsPerCore",
	// "FaultRatePerMillion", ...). Unknown fields are rejected.
	Config json.RawMessage `json:"config,omitempty"`
	// Rates lists the fault rates (messages lost per million) of a sweep.
	// Required for type "sweep", rejected otherwise.
	Rates []int `json:"rates,omitempty"`
	// Coverage tunes a coverage campaign; only valid for type "coverage".
	Coverage *repro.CoverageOptions `json:"coverage,omitempty"`
	// TileDeath tunes a structural campaign; only valid for type
	// "tile-death".
	TileDeath *repro.TileDeathOptions `json:"tile_death,omitempty"`
	// Interleave tunes the model-checking gate; only valid for type
	// "interleave". Absent, the gate runs with a one-loss fault budget.
	Interleave *repro.InterleaveOptions `json:"interleave,omitempty"`
}

// resolved is a fully-resolved experiment request: the base configuration
// has been selected and every override applied, so two requests that mean
// the same experiment — whatever their field order or defaulting — resolve
// to identical values and therefore identical cache keys.
type resolved struct {
	Type       string                   `json:"type"`
	Workload   string                   `json:"workload"`
	Config     repro.Config             `json:"config"`
	Rates      []int                    `json:"rates,omitempty"`
	Coverage   *repro.CoverageOptions   `json:"coverage,omitempty"`
	TileDeath  *repro.TileDeathOptions  `json:"tileDeath,omitempty"`
	Interleave *repro.InterleaveOptions `json:"interleave,omitempty"`
}

// key returns the content address of the resolved request: the canonical
// hash (internal/canon) of its fully-resolved form. Config.Parallelism is
// execution policy, not experiment identity, and is excluded by its
// json:"-" tag; the golden test in the repo root pins the quick-config
// hash this derives from.
func (r *resolved) key() (string, error) {
	return canon.Hash(r)
}

// workloadNames lists every workload a request may name.
var workloadNames = append(repro.Workloads(), repro.WorkloadExtras()...)

// resolveRequest parses and validates a request body into its resolved
// form. All errors are client errors (HTTP 400).
func resolveRequest(body []byte) (*resolved, error) {
	var req Request
	if err := strictUnmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("invalid request: %w", err)
	}
	c, err := classOf(req.Type)
	if err != nil {
		return nil, err
	}
	if req.Workload == "" {
		req.Workload = c.workload
	}
	if !slices.Contains(workloadNames, req.Workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", req.Workload, workloadNames)
	}

	cfg := repro.DefaultConfig()
	if req.Quick {
		cfg = repro.QuickConfig()
	}
	if c.base != nil {
		c.base(&cfg)
	}
	if len(req.Config) > 0 {
		if err := strictUnmarshal(req.Config, &cfg); err != nil {
			return nil, fmt.Errorf("invalid config overrides: %w", err)
		}
		if !cfg.Protocol.Valid() {
			return nil, fmt.Errorf("invalid config overrides: unknown protocol %d (want %d-%d: %v, %v, %v or %v)",
				int(cfg.Protocol), int(repro.DirCMP), int(repro.FtTokenCMP), repro.DirCMP, repro.FtDirCMP, repro.TokenCMP, repro.FtTokenCMP)
		}
	}
	cfg.Parallelism = 0 // execution knob; the server decides at run time
	// Each params field belongs to one class and is rejected on the others.
	for _, p := range [...]struct {
		param string
		set   bool
	}{{"rates", len(req.Rates) > 0}, {"coverage", req.Coverage != nil},
		{"tile_death", req.TileDeath != nil}, {"interleave", req.Interleave != nil}} {
		for _, owner := range classes {
			if p.set && owner.param == p.param && owner != c {
				return nil, fmt.Errorf("%s params are only valid for type %s", p.param, owner.name)
			}
		}
	}

	res := &resolved{Type: req.Type, Workload: req.Workload, Config: cfg, Rates: req.Rates,
		Coverage: req.Coverage, TileDeath: req.TileDeath, Interleave: req.Interleave}
	if c.check != nil {
		if err := c.check(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields, trailing data and
// duplicate member names. encoding/json matches names to fields without
// regard to case and keeps the last duplicate, so {"type":"run",
// "TYPE":"sweep"} would otherwise resolve differently from the same members
// in another order.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return checkMemberNames(data)
}

// maxMembers bounds the members of one request object. No request type has
// this many fields, so a larger object repeats or invents names either way;
// the bound keeps the pairwise name comparison below cheap.
const maxMembers = 256

// checkMemberNames fails on an object in the first JSON value of data with
// two member names encoding/json would match to the same field (the rule
// of bytes.EqualFold). data must start with a value Decode accepted, so the
// scan can skip strings and scalars without validating them, and stops at
// the end of that value.
func checkMemberNames(data []byte) error {
	data = bytes.TrimLeft(data, " \t\r\n")
	if len(data) == 0 || (data[0] != '{' && data[0] != '[') {
		return nil
	}
	var namesBuf [32][]byte
	names := namesBuf[:0] // member names of the open objects, innermost last
	var opensBuf [8]int
	opens := opensBuf[:0] // per open container: its first index in names, or -1 for an array
	expectName := false
	for i := 0; i < len(data); i++ {
		switch data[i] {
		case '{':
			opens = append(opens, len(names))
			expectName = true
		case '[':
			opens = append(opens, -1)
		case '}', ']':
			if first := opens[len(opens)-1]; first >= 0 {
				names = names[:first]
			}
			opens = opens[:len(opens)-1]
			if len(opens) == 0 {
				return nil
			}
		case ',':
			expectName = opens[len(opens)-1] >= 0
		case '"':
			j := i + 1
			for data[j] != '"' {
				if data[j] == '\\' {
					j++
				}
				j++
			}
			if expectName {
				expectName = false
				name := memberName(data[i : j+1])
				first := opens[len(opens)-1]
				if len(names)-first >= maxMembers {
					return fmt.Errorf("object has more than %d members", maxMembers)
				}
				for _, prev := range names[first:] {
					if bytes.EqualFold(prev, name) {
						return fmt.Errorf("duplicate member %q", name)
					}
				}
				names = append(names, name)
			}
			i = j
		}
	}
	return nil
}

// memberName returns the name a quoted JSON member name denotes, unescaping
// only when it holds an escape.
func memberName(quoted []byte) []byte {
	if bytes.IndexByte(quoted, '\\') < 0 {
		return quoted[1 : len(quoted)-1]
	}
	var name string
	json.Unmarshal(quoted, &name) // the decoder already accepted it
	return []byte(name)
}

// Job states. A job is content-addressed: its ID is the cache key of its
// resolved request, so identical submissions share one job (and one
// execution — the in-flight coalescing the cache layer relies on).
const (
	stateQueued   = "queued"
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// job is one experiment execution and its memoized result.
type job struct {
	id  string
	req *resolved

	mu       sync.Mutex
	state    string
	created  time.Time
	started  time.Time
	finished time.Time
	tracker  *runner.Tracker
	snap     runner.Snapshot
	subs     map[chan runner.Snapshot]struct{}
	result   json.RawMessage // canonical result bytes, set once on success
	errMsg   string
	res      *repro.Result // retained for /trace on single-run experiments
	exports  *traceExports // /trace bytes for jobs loaded from the disk store
	cancel   func()        // cancels this job's context (forced shutdown)

	// Service tracing (svctrace.go): one reqTrace per submission that
	// touched this job (bounded; overflow counted in reqsDropped), plus the
	// execution-side spans recorded by the worker.
	reqs        []reqTrace
	reqsDropped int
	execSpans   []svcSpan

	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

func newJob(id string, req *resolved, now time.Time) *job {
	return &job{
		id:      id,
		req:     req,
		state:   stateQueued,
		created: now,
		subs:    make(map[chan runner.Snapshot]struct{}),
		done:    make(chan struct{}),
	}
}

// traceExports holds the rendered /trace payloads of a finished run:
// written into the disk-store envelope at completion, and carried by jobs
// reconstructed from one (whose live *repro.Result no longer exists).
type traceExports struct {
	eventsJSONL []byte
	chromeTrace []byte
	spansJSONL  []byte
}

// jobFromEnvelope reconstructs a terminal job from a durable-store entry:
// already done, result bytes attached, trace exports (if any) servable.
// The resolved request is not persisted — only the fields the status
// document needs are — so req carries just type and workload.
func jobFromEnvelope(env *envelope) *job {
	j := &job{
		id:       env.ID,
		req:      &resolved{Type: env.Type, Workload: env.Workload},
		state:    stateDone,
		created:  env.Created,
		started:  env.Started,
		finished: env.Finished,
		result:   env.Result,
		subs:     make(map[chan runner.Snapshot]struct{}),
		done:     make(chan struct{}),
	}
	if len(env.EventsJSONL) > 0 || len(env.ChromeTrace) > 0 || len(env.SpansJSONL) > 0 {
		j.exports = &traceExports{
			eventsJSONL: env.EventsJSONL,
			chromeTrace: env.ChromeTrace,
			spansJSONL:  env.SpansJSONL,
		}
	}
	close(j.done)
	return j
}

// envelopeFor renders the job into its durable-store form from the
// just-computed result, before finish publishes it — the worker spills to
// disk first so the store span is recorded by the time waiters wake.
func (j *job) envelopeFor(result json.RawMessage, exports *traceExports, finished time.Time) *envelope {
	j.mu.Lock()
	defer j.mu.Unlock()
	env := &envelope{
		ID:       j.id,
		Type:     j.req.Type,
		Workload: j.req.Workload,
		Created:  j.created,
		Started:  j.started,
		Finished: finished,
		Result:   result,
	}
	if exports != nil {
		env.EventsJSONL = exports.eventsJSONL
		env.ChromeTrace = exports.chromeTrace
		env.SpansJSONL = exports.spansJSONL
	}
	return env
}

// createdAt returns the creation time under the lock.
func (j *job) createdAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.created
}

// renderExports pre-renders the trace exports of a completed run result,
// so they survive in the durable store. Returns nil when the run retained
// neither events nor spans (the common case).
func renderExports(res *repro.Result) *traceExports {
	if res == nil {
		return nil
	}
	var exp traceExports
	if len(res.Events()) > 0 {
		var ev, ch bytes.Buffer
		res.WriteEventsJSONL(&ev)
		res.WriteChromeTrace(&ch)
		exp.eventsJSONL, exp.chromeTrace = ev.Bytes(), ch.Bytes()
	}
	if len(res.Spans()) > 0 {
		var sp bytes.Buffer
		res.WriteSpansJSONL(&sp)
		exp.spansJSONL = sp.Bytes()
	}
	if exp.eventsJSONL == nil && exp.spansJSONL == nil {
		return nil
	}
	return &exp
}

// start transitions queued → running.
func (j *job) start(now time.Time, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = stateRunning
	j.started = now
	j.cancel = cancel
}

// finish records the terminal state and wakes every waiter. resultJSON,
// res and exports are only set on success; errMsg only on failure.
func (j *job) finish(now time.Time, state string, resultJSON json.RawMessage, res *repro.Result, exports *traceExports, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.finished = now
	j.result = resultJSON
	j.res = res
	j.exports = exports
	j.errMsg = errMsg
	j.cancel = nil
	close(j.done)
}

// publish stores the latest progress snapshot and fans it out to SSE
// subscribers without blocking the experiment (slow subscribers miss
// intermediate snapshots, never delay the run).
func (j *job) publish(s runner.Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.snap = s
	for ch := range j.subs {
		select {
		case ch <- s:
		default:
		}
	}
}

// publishCounts adapts count-style progress callbacks (coverage campaigns)
// into snapshots via a lazily-created tracker.
func (j *job) publishCounts(done, total int) {
	j.mu.Lock()
	if j.tracker == nil {
		j.tracker = runner.NewTracker(total)
	}
	j.tracker.Advance(done)
	s := j.tracker.Snapshot()
	j.mu.Unlock()
	j.publish(s)
}

// subscribe registers an SSE listener and returns the channel plus the
// snapshot at subscription time (so late subscribers still see progress).
func (j *job) subscribe() (chan runner.Snapshot, runner.Snapshot) {
	ch := make(chan runner.Snapshot, 16)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs[ch] = struct{}{}
	return ch, j.snap
}

// progress returns the latest published snapshot.
func (j *job) progress() runner.Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap
}

func (j *job) unsubscribe(ch chan runner.Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

// statusDoc is the GET /v1/experiments/{id} document (and, with Cached
// set, the POST response).
type statusDoc struct {
	ID       string           `json:"id"`
	Type     string           `json:"type"`
	Workload string           `json:"workload"`
	State    string           `json:"state"`
	Cached   bool             `json:"cached,omitempty"`
	Shard    *int             `json:"shard,omitempty"` // set by the router's merged list
	Created  time.Time        `json:"created"`
	Started  *time.Time       `json:"started,omitempty"`
	Finished *time.Time       `json:"finished,omitempty"`
	Progress *runner.Snapshot `json:"progress,omitempty"`
	Result   json.RawMessage  `json:"result,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// status renders the job's current status document.
func (j *job) status(cached bool) statusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := statusDoc{
		ID:       j.id,
		Type:     j.req.Type,
		Workload: j.req.Workload,
		State:    j.state,
		Cached:   cached,
		Created:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		doc.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		doc.Finished = &t
	}
	if j.state == stateRunning && j.snap.Total > 0 {
		s := j.snap
		doc.Progress = &s
	}
	doc.Result = j.result
	doc.Error = j.errMsg
	return doc
}

// currentState returns the state under the lock.
func (j *job) currentState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// cancelRun invokes the job's context cancel, if it is running.
func (j *job) cancelRun() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// traceData returns the retained Result (live jobs) or the pre-rendered
// exports (jobs loaded from the disk store) for trace export, or an error
// explaining why neither is available. At most one of the returns is
// non-nil on success.
func (j *job) traceData() (*repro.Result, *traceExports, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state != stateDone:
		return nil, nil, fmt.Errorf("experiment %s is %s; traces are available once it is done", j.id, j.state)
	case j.res != nil:
		return j.res, nil, nil
	case j.exports != nil:
		return nil, j.exports, nil
	case j.req.Type == "run":
		// A run that retained nothing, or one reloaded from a store entry
		// written without exports: the handler reports the per-format
		// "nothing retained" conflict.
		return nil, &traceExports{}, nil
	}
	return nil, nil, fmt.Errorf("traces are only available for type \"run\" experiments (this is %q)", j.req.Type)
}
