package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/stats"
)

// metrics aggregates the counters behind GET /metrics. Rendering is
// Prometheus text exposition format, hand-rolled (the module has no
// dependencies); the latency histograms reuse internal/stats' power-of-two
// buckets as cumulative le-labelled counts.
type metrics struct {
	mu          sync.Mutex
	cacheHits   uint64
	cacheMisses uint64
	rejected    uint64 // 429s: queue-full submissions turned away
	misdirected uint64 // 421s: submissions owned by another shard

	// Durable-store counters (all zero when no -cache-dir is set).
	diskHits    uint64 // lookups served by loading an entry from disk
	quarantined uint64 // corrupt entries renamed to *.corrupt
	evictions   uint64 // entries removed by the size-cap LRU pass
	storeErrors uint64 // failed spills/loads (the job still serves from memory)

	executed map[string]uint64           // finished executions by terminal state
	latency  map[string]*stats.Histogram // wall latency (ms) by experiment type
}

func newMetrics() *metrics {
	return &metrics{
		executed: make(map[string]uint64),
		latency:  make(map[string]*stats.Histogram),
	}
}

func (m *metrics) hit() {
	m.mu.Lock()
	m.cacheHits++
	m.mu.Unlock()
}

func (m *metrics) miss() {
	m.mu.Lock()
	m.cacheMisses++
	m.mu.Unlock()
}

func (m *metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *metrics) misdirect() {
	m.mu.Lock()
	m.misdirected++
	m.mu.Unlock()
}

func (m *metrics) diskHit() {
	m.mu.Lock()
	m.diskHits++
	m.mu.Unlock()
}

func (m *metrics) quarantine() {
	m.mu.Lock()
	m.quarantined++
	m.mu.Unlock()
}

func (m *metrics) evict(n int) {
	m.mu.Lock()
	m.evictions += uint64(n)
	m.mu.Unlock()
}

func (m *metrics) storeError() {
	m.mu.Lock()
	m.storeErrors++
	m.mu.Unlock()
}

// observe records one finished execution.
func (m *metrics) observe(expType, state string, wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.executed[state]++
	h := m.latency[expType]
	if h == nil {
		h = &stats.Histogram{}
		m.latency[expType] = h
	}
	ms := wall.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	h.Add(uint64(ms))
}

// snapshot returns the cache counters (used by tests and the server).
func (m *metrics) snapshot() (hits, misses, rejected uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheHits, m.cacheMisses, m.rejected
}

// diskSnapshot returns the durable-store counters.
func (m *metrics) diskSnapshot() (diskHits, quarantined, evictions uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.diskHits, m.quarantined, m.evictions
}

// renderInfo carries the point-in-time gauges render needs alongside the
// metrics' own counters.
type renderInfo struct {
	jobsByState          map[string]int // jobs the server currently tracks
	queueDepth, queueCap int
	running              int   // workers executing right now
	shard, shardCount    int   // shard identity (0/1 when unsharded)
	diskBytes            int64 // live bytes in the durable store; -1 = no store

	// Go runtime health (handleMetrics samples these at scrape time).
	goroutines int
	heapAlloc  uint64
	gcPauseNs  uint64
	gcCycles   uint32
	goVersion  string
	version    string
	msgGets    uint64 // msg.PoolStats: messages requested
	msgMisses  uint64 // msg.PoolStats: requests no recycled message could satisfy
	simPushes  uint64 // sim.HeapStats: events scheduled
	simGrows   uint64 // sim.HeapStats: pushes that grew an engine's slab
}

// hitRatio renders the freelist hit rate (gets-misses)/gets as a decimal;
// 0 before any traffic.
func hitRatio(gets, misses uint64) string {
	if gets == 0 {
		return "0"
	}
	return strconv.FormatFloat(float64(gets-misses)/float64(gets), 'g', 6, 64)
}

// render writes the Prometheus text format.
func (m *metrics) render(w io.Writer, info renderInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobsByState := info.jobsByState

	fmt.Fprintln(w, "# HELP ftserve_build_info Build/runtime identity of this server (value is always 1).")
	fmt.Fprintln(w, "# TYPE ftserve_build_info gauge")
	fmt.Fprintf(w, "ftserve_build_info{version=%q,goversion=%q,shard=\"%d\"} 1\n",
		info.version, info.goVersion, info.shard)

	fmt.Fprintln(w, "# HELP ftserve_jobs Experiment jobs tracked by the server, by state.")
	fmt.Fprintln(w, "# TYPE ftserve_jobs gauge")
	for _, st := range []string{stateQueued, stateRunning, stateDone, stateFailed, stateCanceled} {
		fmt.Fprintf(w, "ftserve_jobs{state=%q} %d\n", st, jobsByState[st])
	}

	fmt.Fprintln(w, "# HELP ftserve_queue_depth Jobs waiting in the scheduler queue.")
	fmt.Fprintln(w, "# TYPE ftserve_queue_depth gauge")
	fmt.Fprintf(w, "ftserve_queue_depth %d\n", info.queueDepth)
	fmt.Fprintln(w, "# HELP ftserve_queue_capacity Scheduler queue capacity.")
	fmt.Fprintln(w, "# TYPE ftserve_queue_capacity gauge")
	fmt.Fprintf(w, "ftserve_queue_capacity %d\n", info.queueCap)
	fmt.Fprintln(w, "# HELP ftserve_workers_busy Workers currently executing a job.")
	fmt.Fprintln(w, "# TYPE ftserve_workers_busy gauge")
	fmt.Fprintf(w, "ftserve_workers_busy %d\n", info.running)

	fmt.Fprintln(w, "# HELP ftserve_shard_index This server's shard index (0 when unsharded).")
	fmt.Fprintln(w, "# TYPE ftserve_shard_index gauge")
	fmt.Fprintf(w, "ftserve_shard_index %d\n", info.shard)
	fmt.Fprintln(w, "# HELP ftserve_shard_count Total shards in the topology (1 when unsharded).")
	fmt.Fprintln(w, "# TYPE ftserve_shard_count gauge")
	count := info.shardCount
	if count < 1 {
		count = 1
	}
	fmt.Fprintf(w, "ftserve_shard_count %d\n", count)

	fmt.Fprintln(w, "# HELP ftserve_cache_hits_total Submissions served from the content-addressed cache (or coalesced onto an in-flight run).")
	fmt.Fprintln(w, "# TYPE ftserve_cache_hits_total counter")
	fmt.Fprintf(w, "ftserve_cache_hits_total %d\n", m.cacheHits)
	fmt.Fprintln(w, "# HELP ftserve_cache_misses_total Submissions that scheduled a new execution.")
	fmt.Fprintln(w, "# TYPE ftserve_cache_misses_total counter")
	fmt.Fprintf(w, "ftserve_cache_misses_total %d\n", m.cacheMisses)
	fmt.Fprintln(w, "# HELP ftserve_rejected_total Submissions rejected with 429 because the queue was full.")
	fmt.Fprintln(w, "# TYPE ftserve_rejected_total counter")
	fmt.Fprintf(w, "ftserve_rejected_total %d\n", m.rejected)
	fmt.Fprintln(w, "# HELP ftserve_misdirected_total Submissions answered 421 because another shard owns the job ID.")
	fmt.Fprintln(w, "# TYPE ftserve_misdirected_total counter")
	fmt.Fprintf(w, "ftserve_misdirected_total %d\n", m.misdirected)

	fmt.Fprintln(w, "# HELP ftserve_cache_disk_hits_total Lookups served by loading a durable-store entry from disk.")
	fmt.Fprintln(w, "# TYPE ftserve_cache_disk_hits_total counter")
	fmt.Fprintf(w, "ftserve_cache_disk_hits_total %d\n", m.diskHits)
	fmt.Fprintln(w, "# HELP ftserve_cache_disk_quarantined_total Corrupt durable-store entries quarantined (renamed to *.corrupt).")
	fmt.Fprintln(w, "# TYPE ftserve_cache_disk_quarantined_total counter")
	fmt.Fprintf(w, "ftserve_cache_disk_quarantined_total %d\n", m.quarantined)
	fmt.Fprintln(w, "# HELP ftserve_cache_disk_evictions_total Durable-store entries removed by the size-cap LRU pass.")
	fmt.Fprintln(w, "# TYPE ftserve_cache_disk_evictions_total counter")
	fmt.Fprintf(w, "ftserve_cache_disk_evictions_total %d\n", m.evictions)
	fmt.Fprintln(w, "# HELP ftserve_cache_disk_errors_total Durable-store spill/load failures (served from memory instead).")
	fmt.Fprintln(w, "# TYPE ftserve_cache_disk_errors_total counter")
	fmt.Fprintf(w, "ftserve_cache_disk_errors_total %d\n", m.storeErrors)
	if info.diskBytes >= 0 {
		fmt.Fprintln(w, "# HELP ftserve_cache_disk_bytes Live bytes in the durable store.")
		fmt.Fprintln(w, "# TYPE ftserve_cache_disk_bytes gauge")
		fmt.Fprintf(w, "ftserve_cache_disk_bytes %d\n", info.diskBytes)
	}

	fmt.Fprintln(w, "# HELP ftserve_executions_total Finished executions by terminal state.")
	fmt.Fprintln(w, "# TYPE ftserve_executions_total counter")
	for _, st := range sortedKeys(m.executed) {
		fmt.Fprintf(w, "ftserve_executions_total{state=%q} %d\n", st, m.executed[st])
	}

	fmt.Fprintln(w, "# HELP ftserve_go_goroutines Goroutines at scrape time.")
	fmt.Fprintln(w, "# TYPE ftserve_go_goroutines gauge")
	fmt.Fprintf(w, "ftserve_go_goroutines %d\n", info.goroutines)
	fmt.Fprintln(w, "# HELP ftserve_go_heap_alloc_bytes Live heap bytes at scrape time.")
	fmt.Fprintln(w, "# TYPE ftserve_go_heap_alloc_bytes gauge")
	fmt.Fprintf(w, "ftserve_go_heap_alloc_bytes %d\n", info.heapAlloc)
	fmt.Fprintln(w, "# HELP ftserve_go_gc_pause_ns_total Cumulative GC stop-the-world pause, nanoseconds.")
	fmt.Fprintln(w, "# TYPE ftserve_go_gc_pause_ns_total counter")
	fmt.Fprintf(w, "ftserve_go_gc_pause_ns_total %d\n", info.gcPauseNs)
	fmt.Fprintln(w, "# HELP ftserve_go_gc_cycles_total Completed GC cycles.")
	fmt.Fprintln(w, "# TYPE ftserve_go_gc_cycles_total counter")
	fmt.Fprintf(w, "ftserve_go_gc_cycles_total %d\n", info.gcCycles)

	fmt.Fprintln(w, "# HELP ftserve_pool_msg_gets_total Simulator messages requested from the networks' freelists (msg.PoolStats, counted when each simulation run ends).")
	fmt.Fprintln(w, "# TYPE ftserve_pool_msg_gets_total counter")
	fmt.Fprintf(w, "ftserve_pool_msg_gets_total %d\n", info.msgGets)
	fmt.Fprintln(w, "# HELP ftserve_pool_msg_misses_total Message requests neither a freelist nor the shared pool could satisfy (fresh allocations).")
	fmt.Fprintln(w, "# TYPE ftserve_pool_msg_misses_total counter")
	fmt.Fprintf(w, "ftserve_pool_msg_misses_total %d\n", info.msgMisses)
	fmt.Fprintln(w, "# HELP ftserve_pool_msg_hit_ratio Freelist hit rate for simulator messages (1 = fully recycled).")
	fmt.Fprintln(w, "# TYPE ftserve_pool_msg_hit_ratio gauge")
	fmt.Fprintf(w, "ftserve_pool_msg_hit_ratio %s\n", hitRatio(info.msgGets, info.msgMisses))
	fmt.Fprintln(w, "# HELP ftserve_pool_sim_event_pushes_total Simulation events scheduled (event-queue pushes).")
	fmt.Fprintln(w, "# TYPE ftserve_pool_sim_event_pushes_total counter")
	fmt.Fprintf(w, "ftserve_pool_sim_event_pushes_total %d\n", info.simPushes)
	fmt.Fprintln(w, "# HELP ftserve_pool_sim_event_grows_total Event-queue pushes that grew an engine's slab instead of reusing a free slot.")
	fmt.Fprintln(w, "# TYPE ftserve_pool_sim_event_grows_total counter")
	fmt.Fprintf(w, "ftserve_pool_sim_event_grows_total %d\n", info.simGrows)
	fmt.Fprintln(w, "# HELP ftserve_pool_sim_event_hit_ratio Slot-reuse rate for the event queue (1 = allocation-free steady state).")
	fmt.Fprintln(w, "# TYPE ftserve_pool_sim_event_hit_ratio gauge")
	fmt.Fprintf(w, "ftserve_pool_sim_event_hit_ratio %s\n", hitRatio(info.simPushes, info.simGrows))

	fmt.Fprintln(w, "# HELP ftserve_experiment_latency_ms Wall-clock execution latency by experiment type, milliseconds.")
	fmt.Fprintln(w, "# TYPE ftserve_experiment_latency_ms histogram")
	for _, typ := range sortedKeys(m.latency) {
		h := m.latency[typ]
		var cum uint64
		for _, b := range h.Buckets() {
			cum += b.Count
			fmt.Fprintf(w, "ftserve_experiment_latency_ms_bucket{type=%q,le=%q} %d\n", typ, fmt.Sprint(b.Hi), cum)
		}
		fmt.Fprintf(w, "ftserve_experiment_latency_ms_bucket{type=%q,le=\"+Inf\"} %d\n", typ, h.Count())
		fmt.Fprintf(w, "ftserve_experiment_latency_ms_sum{type=%q} %d\n", typ, h.Sum())
		fmt.Fprintf(w, "ftserve_experiment_latency_ms_count{type=%q} %d\n", typ, h.Count())
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
