# Developer/CI entry points. `make check` is the CI gate: vet, build, the
# full test suite under the race detector — the parallel campaign runner
# (internal/runner) must stay race-clean — and the allocation pins, which
# only build without it.

GO ?= go

.PHONY: check vet build test race alloc-check sweep-bench docs-check coverage-quick tile-check mc-check mc-fuzz replay-fuzz sim-fuzz obs-fuzz cache-fuzz coverage-fuzz serve-fuzz canon-fuzz serve-check trace-check load-check

check: vet build race alloc-check docs-check coverage-quick tile-check mc-check serve-check load-check

# vet also covers the nested bench module, so deleting a repro function
# that bench/ calls fails here and not only in CI's bench-smoke.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-check runs the allocation and byte pins without the race detector:
# their files are `//go:build !race`, because -race makes sync.Pool drop
# recycled items at random, so the race target never runs them. They pin
# the pooled simulation hot path, the model checker's per-path cost, a
# reset system's restart, the engine's steady state and the serve layer's
# request keying.
alloc-check:
	$(GO) test -run '^Test.*(Allocs|Bytes)Pin$$|^TestEngineSteadyStateAllocs$$' . ./internal/sim ./internal/system ./internal/serve

# docs-check keeps the documentation honest: markdown links must resolve,
# PROTOCOL.md's message tables must match internal/trace.Describe, and
# docs/OBSERVABILITY.md must cover every event kind the recorder emits.
docs-check:
	$(GO) test -run 'TestDocs' .

# coverage-quick proves recovery from every single-message loss of the
# quick workload (every injectable slot, enumerated and dropped one run at
# a time) and shows DirCMP failing the same campaign. See docs/COVERAGE.md.
coverage-quick:
	$(GO) run ./cmd/ftcheck -exhaustive -quick -ops 20

# tile-check proves recovery from every structural fault of the quick
# workload: each tile and each mesh link is killed at every enumerated
# injection slot (victim × slot), with the extended verdict of
# docs/COVERAGE.md § Structural faults; DirCMP deadlocks on every tile
# death, naming the dead nodes. The campaign resets one system per worker
# for every death, so the reuse differential test runs first with message
# pooling off: every death of the same campaign, FtDirCMP and DirCMP, must
# end on a reused worker exactly as on a fresh system.
tile-check:
	REPRO_NOPOOL=1 $(GO) test -run 'TestTileDeathReuseMatchesFresh' .
	$(GO) run ./cmd/ftcheck -tile-death

# mc-check runs the model-checking gate under the race detector: the
# internal/mc soundness suite (state-hash stability, replay determinism,
# parallelism-independence), then the quick exhaustive exploration itself
# — FtDirCMP must exhaust every delivery interleaving with a one-loss
# budget violation-free while DirCMP yields a replayable deadlock
# counterexample. The reset and restore differential tests run again with
# message pooling off: a reset system must match a fresh one either way,
# for the explorer's paths and for every run of a single-loss campaign's
# reused worker, and so must a system restored from a snapshot for every
# successor the explorer forks from one. See docs/MODELCHECK.md.
mc-check:
	$(GO) test -race ./internal/mc
	REPRO_NOPOOL=1 $(GO) test -run 'Reset|Restore' ./internal/mc
	REPRO_NOPOOL=1 $(GO) test -run 'TestCoverageReuseMatchesFresh' .
	$(GO) run ./cmd/ftcheck -interleave

# mc-fuzz fuzzes System.Reset for 20 s: two decision prefixes decoded from
# fuzz bytes, on every gate shape and protocol, where the second prefix
# must end in exactly the same state, choices, verdict and memory image
# on a system reset after the first as on a fresh system. It then fuzzes
# the reset the fault campaigns use for 20 s: two decoded slots, each a
# message loss, a tile death (directory protocols) or a link death, run
# back to back on one system and recorder, and the second run must end
# exactly as on a fresh system (error text, statistics, memory image,
# recovery report, metrics and retained events). Last it fuzzes
# System.Snapshot and Restore for 20 s: a decoded prefix, on the gate
# shapes or on a longer run whose tiny caches evict, is snapshotted at
# its choice point, and every successor taken from a restore of it must
# end exactly as the whole schedule replayed on a fresh system. CI runs
# it in the mc job, beside sim-fuzz.
mc-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzResetMatchesFresh -fuzztime 20s ./internal/mc
	$(GO) test -run '^$$' -fuzz FuzzLossResetMatchesFresh -fuzztime 20s ./internal/system
	$(GO) test -run '^$$' -fuzz FuzzRestoreMatchesReplay -fuzztime 20s ./internal/mc

# replay-fuzz fuzzes the `fttrace -replay` input boundary for 20 s:
# arbitrary bytes go to ReadInterleaveDoc and, if accepted, twice to
# ReplayCounterexampleTrace; neither may panic, and both replays must give
# the same error or the same verdict, event log and message log. Documents
# over the interleave class's limits (4 tiles, 8 ops per core) are
# skipped. CI runs it in the mc job, beside mc-fuzz.
replay-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadInterleaveDoc -fuzztime 20s .

# sim-fuzz fuzzes the simulation engine's event queue for 20 s: decoded
# schedules at delays on both sides of the bucket ring's horizon, timer
# re-arms and stops, and chooser picks out of the ring and the overflow
# heap must fire exactly as a sorted-list reference model does. It then
# fuzzes the flat data-value oracle (system.Integrity) for 20 s: decoded
# scripts of in-order, duplicated, far-ahead and version-0 commits, core
# reads and writes and rollbacks must give exactly the errors and last
# versions of the nested-map reference oracle. CI runs it in the mc job,
# beside the model checker that relies on the choice points.
sim-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEngineOrder -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzIntegrityMatchesOracle -fuzztime 20s ./internal/system

# obs-fuzz fuzzes the obs recorder's event ring for 20 s: capacities on
# both sides of a storage chunk, with event counts below, at and far past
# the capacity, must retain exactly the events (and answer LastEventFor
# exactly as) an eagerly allocated reference ring does. A Reset at a
# fuzzed point, before or after the ring wrapped, must leave the events,
# LastEventFor answers and metrics of a fresh recorder fed the same tail.
# CI runs it in the mc job, beside sim-fuzz.
obs-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRecorderRing -fuzztime 20s ./internal/obs

# cache-fuzz fuzzes the cache array's set-granular frames for 20 s: a
# random geometry and fill/evict/invalidate script must pick, look up and
# visit (ForEach, Count) exactly the frames a fully allocated reference
# geometry does, and no frame handed out may change address. It then
# fuzzes the slice-backed cache.Table for 20 s against a map oracle: a
# random Alloc/Get/Free/Reset/ForEach script must return the oracle's
# entries, and Alloc must reuse freed entries as the freelist model says.
# CI runs it in the mc job, beside sim-fuzz and obs-fuzz.
cache-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzArrayMatchesReference -fuzztime 20s ./internal/cache
	$(GO) test -run '^$$' -fuzz FuzzTableMatchesMap -fuzztime 20s ./internal/cache

# coverage-fuzz fuzzes the fault-campaign engine for 20 s: decoded
# synthetic protocols (a message stream plus fatal and diverging drop types)
# run the message-loss campaign with double faults and the tile/link-death
# campaign at parallelism 1 and 4; reports must be byte-identical across
# parallelism, account for every tested slot once, sum per row to the
# totals, and keep rows in census type or victim order. CI runs it in the
# coverage job, beside coverage-quick.
coverage-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCampaign -fuzztime 20s ./internal/coverage

# serve-fuzz fuzzes the experiment request body for 20 s, the boundary
# where client-supplied configuration enters the simulator: resolveRequest
# must never panic, a body and its field-reordered re-encoding must resolve
# to the same cache key (or both fail), and an accepted run body of at most
# 64 tiles, executed with at most one operation per core, must end in a
# Result or an error within 2 s. It then fuzzes the disk-cache entry load
# for 20 s: arbitrary entry bytes must be quarantined or load as an
# envelope with the requested ID, version and result. CI runs it in the
# serve job.
serve-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzResolveRequest -fuzztime 20s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDiskStoreGet -fuzztime 20s ./internal/serve

# canon-fuzz fuzzes the canonical JSON behind every job ID for 20 s:
# arbitrary JSON text (escapes, repeated keys, invalid UTF-8, long
# numbers) must canonicalise and hash to exactly the bytes, hash and error
# of the decode-into-a-tree oracle in canon_test.go, and never panic. CI
# runs it in the serve job, beside serve-fuzz.
canon-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCanonMarshal -fuzztime 20s ./internal/canon

# serve-check builds the ftserve binary and runs the experiment-serving
# e2e suite under the race detector: concurrent duplicate submissions
# coalesce to one run with byte-identical replies, queue-full backpressure
# returns 429, SSE progress streams during runs, and graceful shutdown
# drains in-flight campaigns without corrupting results. See
# docs/SERVICE.md.
serve-check:
	$(GO) build -o /dev/null ./cmd/ftserve
	$(GO) test -race ./internal/serve

# trace-check runs just the fleet-tracing e2e slice of the serve suite:
# the golden-pinned Perfetto service export, cached-disk replay purity,
# trace-header propagation through the router, and the router error paths
# (dead shard, 421 retry, mid-body failure). A subset of serve-check,
# split out so CI names the tracing gate explicitly.
trace-check:
	$(GO) test -race -run 'TestServiceTrace|TestSubmitTraceHeaders|TestStatusEndpoint|TestMetricsExposition|TestPprofEndpoints|TestRouterStatus|TestRouterRetriesMisdirected421|TestRouterRelaysUnretryable421|TestRouterSurvivesMidBodyShardFailure|TestRouterPropagatesTraceContext' ./internal/serve

# load-check runs the cmd/ftload suite under the race detector (the JSON
# report shape is pinned there) plus one real invocation of the harness
# against a self-served 2-shard topology.
load-check:
	$(GO) test -race ./cmd/ftload
	$(GO) run ./cmd/ftload -serve 2 -clients 64 -requests 128 -workers 1 -json > /dev/null

# sweep-bench times the parallel campaign runner against the serial loop;
# on an N-core machine the allcores variant approaches N× faster.
sweep-bench:
	$(GO) test -run '^$$' -bench BenchmarkFaultSweepParallelism -benchtime 3x .
