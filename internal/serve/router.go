package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Router is the thin front of a sharded ftserve deployment: it resolves
// each submission exactly like a backend would, hashes the resulting job
// ID with ShardOf, and proxies the request to the owning shard — so
// duplicate submissions arriving anywhere in the topology still coalesce
// onto one executor, while reads (status, SSE, traces) follow the same
// mapping. The router holds no job state of its own; killing and
// restarting it loses nothing.
//
// Requests the router cannot attribute to a shard from the URL alone
// (the experiment list) fan out to every backend and merge. /metrics and
// /healthz are the router's own, aggregating backend health.
type Router struct {
	backends []*url.URL
	mux      *http.ServeMux
	// proxy streams indefinitely (SSE); probe enforces a short deadline
	// for health checks.
	proxy *http.Client
	probe *http.Client

	log    *slog.Logger
	reqSeq atomic.Uint64 // generated request-ID sequence ("p<n>")

	mu         sync.Mutex
	routed     []uint64 // proxied requests per backend
	fanouts    uint64   // list requests fanned out to all backends
	proxyErr   uint64   // upstream failures answered 502
	retried421 uint64   // misdirected submissions re-proxied to the named owner
}

// proxyIdleConnsPerHost is how many idle connections the router keeps
// open to each shard. http.DefaultTransport keeps 2 and closes the rest
// as their responses end, so under more concurrent requests than that
// the router would dial its shards again and again; this many covers
// every concurrent request a fleet's clients proxy in practice.
const proxyIdleConnsPerHost = 256

// NewRouter builds a Router over the given backend base URLs, in shard
// order: backends[i] must be the ftserve process started with -shard i/n.
func NewRouter(backends []string) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("router needs at least one backend")
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = proxyIdleConnsPerHost
	transport.MaxIdleConns = proxyIdleConnsPerHost * len(backends)
	rt := &Router{
		mux:    http.NewServeMux(),
		proxy:  &http.Client{Transport: transport},
		probe:  &http.Client{Timeout: 5 * time.Second},
		log:    discardLogger(),
		routed: make([]uint64, len(backends)),
	}
	for _, b := range backends {
		u, err := url.Parse(strings.TrimSuffix(b, "/"))
		if err != nil {
			return nil, fmt.Errorf("backend %q: %w", b, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("backend %q: need an absolute http(s) URL", b)
		}
		rt.backends = append(rt.backends, u)
	}
	rt.mux.HandleFunc("POST /v1/experiments", rt.handleSubmit)
	rt.mux.HandleFunc("GET /v1/experiments", rt.handleList)
	rt.mux.HandleFunc("GET /v1/experiments/{id}", rt.handleByID)
	rt.mux.HandleFunc("GET /v1/experiments/{id}/events", rt.handleByID)
	rt.mux.HandleFunc("GET /v1/experiments/{id}/trace", rt.handleByID)
	rt.mux.HandleFunc("GET /v1/status", rt.handleStatus)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	registerPprof(rt.mux)
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// SetLogger installs a structured logger for proxy events (nil discards).
func (rt *Router) SetLogger(l *slog.Logger) {
	if l == nil {
		l = discardLogger()
	}
	rt.log = l
}

// requestID returns the sanitized caller-supplied request ID or generates
// a router-scoped one ("p<n>"), so every proxied request is correlatable
// across router and shard logs even when the client sent nothing.
func (rt *Router) requestID(r *http.Request) string {
	if id := cleanRequestID(r.Header.Get(HeaderRequestID)); id != "" {
		return id
	}
	return "p" + strconv.FormatUint(rt.reqSeq.Add(1), 10)
}

// handleSubmit resolves the body to its job ID — the router shares the
// backends' resolver, so it computes the same canonical hash — and proxies
// to the owning shard.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	req, err := resolveRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := req.key()
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("hashing request: %v", err))
		return
	}
	rt.forward(w, r, ShardOf(key, len(rt.backends)), body)
}

// handleByID proxies status, SSE and trace reads to the shard owning the
// job ID in the path.
func (rt *Router) handleByID(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, ShardOf(r.PathValue("id"), len(rt.backends)), nil)
}

// forward proxies the request to backends[shard], streaming the response
// through with per-chunk flushes so SSE progress events arrive live. body
// is non-nil for submissions (buffered so a misdirected 421 can be retried
// against the owner shard the backend named — the one repair possible when
// the router's shard map disagrees with a backend's -shard flag).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, shard int, body []byte) {
	reqID := rt.requestID(r)
	start := time.Now()
	resp, err := rt.send(r, shard, body, reqID, start)
	if err != nil {
		rt.log.Warn("proxy failed", "request_id", reqID, "shard", shard, "path", r.URL.Path, "error", err.Error())
		rt.upstreamError(w, shard, err)
		return
	}

	if resp.StatusCode == http.StatusMisdirectedRequest && body != nil {
		// The backend named the owner; re-proxy there once.
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		if owner, ok := misdirectOwner(payload, len(rt.backends)); ok && owner != shard {
			rt.mu.Lock()
			rt.retried421++
			rt.mu.Unlock()
			rt.log.Info("misdirect retry", "request_id", reqID, "from_shard", shard, "to_shard", owner)
			shard = owner
			resp, err = rt.send(r, shard, body, reqID, start)
			if err != nil {
				rt.log.Warn("proxy failed", "request_id", reqID, "shard", shard, "path", r.URL.Path, "error", err.Error())
				rt.upstreamError(w, shard, err)
				return
			}
		} else {
			// Unparseable or self-referential: relay the buffered 421 as-is.
			copyProxyHeaders(w, resp)
			w.WriteHeader(resp.StatusCode)
			w.Write(payload)
			rt.log.Warn("misdirect not retryable", "request_id", reqID, "shard", shard)
			return
		}
	}
	defer resp.Body.Close()
	rt.log.Info("proxy", "request_id", reqID, "shard", shard, "path", r.URL.Path, "status", resp.StatusCode)

	copyProxyHeaders(w, resp)
	if w.Header().Get(HeaderRequestID) == "" {
		w.Header().Set(HeaderRequestID, reqID)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// copyBufs recycles forward's 32 KB response copy buffers.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// send issues one proxied request to backends[shard]. Submissions carry the
// trace headers: the request ID and the router's receive time, from which
// the backend synthesizes the proxy span.
func (rt *Router) send(r *http.Request, shard int, body []byte, reqID string, start time.Time) (*http.Response, error) {
	rt.mu.Lock()
	rt.routed[shard]++
	rt.mu.Unlock()

	target := *rt.backends[shard]
	target.Path = r.URL.Path
	target.RawQuery = r.URL.RawQuery
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target.String(), rd)
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(HeaderRequestID, reqID)
	if body != nil {
		req.Header.Set(HeaderProxyStart, strconv.FormatInt(start.UnixNano(), 10))
	}
	return rt.proxy.Do(req)
}

// copyProxyHeaders relays the response headers the API contract defines,
// including the trace-context pair.
func copyProxyHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Location", "Retry-After", "Cache-Control", HeaderTraceID, HeaderRequestID} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// misdirectOwner parses the owner shard out of a 421 body
// ({"shard": n, ...}) and validates it against the backend count.
func misdirectOwner(payload []byte, n int) (int, bool) {
	var doc struct {
		Shard *int `json:"shard"`
	}
	if err := json.Unmarshal(payload, &doc); err != nil || doc.Shard == nil {
		return 0, false
	}
	if *doc.Shard < 0 || *doc.Shard >= n {
		return 0, false
	}
	return *doc.Shard, true
}

func (rt *Router) upstreamError(w http.ResponseWriter, shard int, err error) {
	rt.mu.Lock()
	rt.proxyErr++
	rt.mu.Unlock()
	writeError(w, http.StatusBadGateway, fmt.Sprintf("shard %d unreachable: %v", shard, err))
}

// handleList fans the experiment list out to every backend and merges the
// arrays in shard order. A dead backend degrades the list rather than
// failing it; its absence is visible in /healthz.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	rt.fanouts++
	rt.mu.Unlock()

	type listDoc struct {
		Experiments []statusDoc `json:"experiments"`
	}
	merged := listDoc{Experiments: []statusDoc{}}
	for i, b := range rt.backends {
		func() {
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.String()+"/v1/experiments", nil)
			if err != nil {
				return
			}
			resp, err := rt.probe.Do(req)
			if err != nil {
				rt.mu.Lock()
				rt.proxyErr++
				rt.mu.Unlock()
				return
			}
			defer resp.Body.Close()
			var doc listDoc
			if decodeJSONBody(resp.Body, &doc) == nil {
				for j := range doc.Experiments {
					doc.Experiments[j].Shard = intPtr(i)
				}
				merged.Experiments = append(merged.Experiments, doc.Experiments...)
			}
		}()
	}
	writeJSON(w, http.StatusOK, merged)
}

// handleHealthz probes every backend; the router is healthy only when all
// shards are.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var down []string
	for i, b := range rt.backends {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.String()+"/healthz", nil)
		if err != nil {
			down = append(down, fmt.Sprintf("shard %d: %v", i, err))
			continue
		}
		resp, err := rt.probe.Do(req)
		if err != nil {
			down = append(down, fmt.Sprintf("shard %d: %v", i, err))
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			down = append(down, fmt.Sprintf("shard %d: status %d", i, resp.StatusCode))
		}
	}
	if len(down) > 0 {
		http.Error(w, "degraded: "+strings.Join(down, "; "), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintf(w, "ok router shards=%d\n", len(rt.backends))
}

// handleMetrics serves the router's own counters (backends export their
// own /metrics each).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	routed := append([]uint64(nil), rt.routed...)
	fanouts, proxyErr, retried := rt.fanouts, rt.proxyErr, rt.retried421
	rt.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintln(w, "# HELP ftrouter_build_info Build/runtime identity of this router (value is always 1).")
	fmt.Fprintln(w, "# TYPE ftrouter_build_info gauge")
	fmt.Fprintf(w, "ftrouter_build_info{version=%q,goversion=%q} 1\n", Version(), runtime.Version())
	fmt.Fprintln(w, "# HELP ftrouter_backends Backends (shards) this router fronts.")
	fmt.Fprintln(w, "# TYPE ftrouter_backends gauge")
	fmt.Fprintf(w, "ftrouter_backends %d\n", len(rt.backends))
	fmt.Fprintln(w, "# HELP ftrouter_requests_total Requests proxied, by owning shard.")
	fmt.Fprintln(w, "# TYPE ftrouter_requests_total counter")
	for i, n := range routed {
		fmt.Fprintf(w, "ftrouter_requests_total{shard=\"%d\"} %d\n", i, n)
	}
	fmt.Fprintln(w, "# HELP ftrouter_fanouts_total List requests fanned out to every backend.")
	fmt.Fprintln(w, "# TYPE ftrouter_fanouts_total counter")
	fmt.Fprintf(w, "ftrouter_fanouts_total %d\n", fanouts)
	fmt.Fprintln(w, "# HELP ftrouter_proxy_errors_total Upstream failures answered 502.")
	fmt.Fprintln(w, "# TYPE ftrouter_proxy_errors_total counter")
	fmt.Fprintf(w, "ftrouter_proxy_errors_total %d\n", proxyErr)
	fmt.Fprintln(w, "# HELP ftrouter_retried_421_total Misdirected submissions re-proxied to the owner shard a backend named.")
	fmt.Fprintln(w, "# TYPE ftrouter_retried_421_total counter")
	fmt.Fprintf(w, "ftrouter_retried_421_total %d\n", retried)
}

func intPtr(v int) *int { return &v }

// decodeJSONBody decodes a JSON response body.
func decodeJSONBody(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}
