// Package repro is a from-scratch reproduction of "A fault-tolerant
// directory-based cache coherence protocol for CMP architectures"
// (Fernández-Pascual, García, Acacio, Duato — DSN 2008).
//
// It provides a deterministic discrete-event simulator of a tiled
// chip-multiprocessor — cores, private L1 caches, a distributed shared L2
// with an on-chip directory, memory controllers and a 2D-mesh
// interconnection network — running either of two cache coherence
// protocols:
//
//   - DirCMP, the baseline MOESI directory protocol (paper §2), which
//     assumes a reliable network and deadlocks if any message is lost; and
//   - FtDirCMP, the paper's contribution (§3), which tolerates message
//     loss through reliable ownership transference (backup copies and the
//     AckO/AckBD handshake), fault-detection timeouts, request reissue and
//     request serial numbers.
//
// The package exposes a simple front door: build a Config (start from
// DefaultConfig, the paper's Table 4 system), pick a workload, and Run.
// Fault injection, the experiment sweeps behind the paper's figures, and a
// correctness campaign are available through RunWithInjectorContext,
// CompareContext, FaultSweepContext and CheckRecoveryContext. Every entry
// point takes a context first; Run, Coverage, Interleave and
// InterleaveReplay also keep a form without one.
//
//	cfg := repro.DefaultConfig()
//	cfg.FaultRatePerMillion = 250
//	res, err := repro.Run(cfg, "uniform")
//	if err != nil { ... }
//	fmt.Println(res.ReportText)
package repro

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/span"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/workload"
)

// Protocol selects the coherence protocol to simulate. Any other value
// than the four below is rejected when a run is built.
type Protocol = system.Protocol

const (
	// DirCMP is the non-fault-tolerant MOESI baseline.
	DirCMP = system.DirCMP
	// FtDirCMP is the fault-tolerant protocol, the paper's contribution.
	FtDirCMP = system.FtDirCMP
	// TokenCMP is the token-coherence baseline of the authors' previous
	// work, which the paper's §5 compares against (see internal/token).
	TokenCMP = system.TokenCMP
	// FtTokenCMP is its fault-tolerant extension: per-line token serial
	// numbers and the centralized token recreation process.
	FtTokenCMP = system.FtTokenCMP
)

// ParseProtocol returns the protocol named name, in any letter case:
// dircmp, ftdircmp, tokencmp or fttokencmp.
func ParseProtocol(name string) (Protocol, error) {
	for p := DirCMP; p.Valid(); p++ {
		if strings.EqualFold(name, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

// Config describes a complete simulated system. The zero value is not
// valid; start from DefaultConfig.
type Config struct {
	Protocol Protocol

	// Topology: MeshWidth×MeshHeight tiles (core + L1 + L2 bank each) and
	// MemControllers memory controllers at the mesh corners.
	MeshWidth      int
	MeshHeight     int
	MemControllers int

	// Cache hierarchy (sizes in bytes).
	LineSize     int
	L1Size       int
	L1Ways       int
	L2BankSize   int
	L2Ways       int
	L1HitLatency uint64
	L2HitLatency uint64
	MemLatency   uint64

	// Network: per-hop latency, network-interface latency, channel
	// bandwidth in bytes/cycle, and the two message sizes.
	HopLatency     uint64
	LocalLatency   uint64
	FlitBytes      int
	ControlMsgSize int
	DataMsgSize    int

	// MigratoryOpt enables the migratory-sharing optimization.
	MigratoryOpt bool

	// Fault tolerance parameters (paper §3.6 and Table 4). Only the
	// fault-tolerant protocols use them, but every run requires them
	// valid: SerialNumberBits in [1,16] and every timeout positive.
	SerialNumberBits   int
	LostRequestTimeout uint64
	LostUnblockTimeout uint64
	LostAckBDTimeout   uint64
	BackupTimeout      uint64

	// Workload shape: operations per core and think time between them.
	OpsPerCore int
	ThinkTime  uint64
	Seed       uint64

	// CycleLimit aborts runaway simulations (0 = default).
	CycleLimit uint64

	// Fault injection: uniform losses per million messages, or bursts of
	// FaultBurstLen consecutive losses starting at the same rate.
	// RunWithInjectorContext offers full control.
	FaultRatePerMillion int
	FaultBurstLen       int
	FaultSeed           uint64

	// CheckIntegrity runs the data-value oracle and the coherence
	// invariant checker on every run.
	CheckIntegrity bool

	// Parallelism bounds how many independent simulations batch APIs
	// (FaultSweepContext, CompareContext) run concurrently: 0 (the default) uses all
	// cores, 1 reproduces the historical serial loops exactly. Each run
	// is a pure function of its configuration and seeds, so results and
	// their order are identical at every parallelism level. It is an
	// execution knob, not part of the simulated system, so it is omitted
	// from serialized configurations.
	Parallelism int `json:"-"`

	// UnorderedNetwork switches the mesh to adaptive (per-message XY/YX)
	// routing, which breaks point-to-point ordering — the unordered-network
	// extension the paper points to in §2. FtDirCMP's serial numbers make
	// it tolerate reordering as well as loss.
	UnorderedNetwork bool

	// CorruptInsteadOfDrop realizes losses by flipping a bit in the
	// encoded message and letting the receiver's CRC check discard it —
	// the paper's exact failure model — instead of deleting the message
	// outright. Observable behaviour is identical.
	CorruptInsteadOfDrop bool

	// DisableAckOPiggyback sends every ownership acknowledgment as a
	// standalone message (ablation of the §3.1 piggybacking optimization).
	DisableAckOPiggyback bool

	// DetailedNetwork switches the mesh to the virtual cut-through router
	// model: finite per-link per-virtual-channel input buffers with credit
	// backpressure, instead of the default infinite-queue link model.
	// Incompatible with UnorderedNetwork (adaptive routing over shared
	// finite buffers is not deadlock-free).
	DetailedNetwork bool

	// RouterBufferFlits is the input buffer capacity per link per virtual
	// channel in detailed mode (0 = default of 16 flits).
	RouterBufferFlits int

	// RecordEvents retains the structured protocol event log in the
	// Result, enabling Result.Events, Result.WriteEventsJSONL and
	// Result.WriteChromeTrace. The derived observability metrics
	// (EventsByKind, fault/recovery counters, recovery-latency
	// percentiles) are collected on every run regardless of this flag.
	// See docs/OBSERVABILITY.md for the event schema.
	RecordEvents bool

	// EventBufferSize bounds the retained event log when RecordEvents is
	// set: the log keeps the most recent events (0 = default of 65536).
	EventBufferSize int

	// RecordSpans reconstructs causal transaction spans: the run's event
	// stream (with the per-message feed enabled) is grouped by transaction
	// ID and every cycle of every coherence transaction is attributed to a
	// phase (network transit, controller service, timeout stall, ...). The
	// results are available as Result.Spans, Result.Breakdown and the span
	// exporters (WriteSpansJSONL, WriteSpansChromeTrace). Span recording is
	// pure observation: it never changes simulation results, and when off
	// the instrumentation costs nothing. See internal/span and
	// docs/OBSERVABILITY.md.
	RecordSpans bool
}

// DefaultConfig returns the paper's Table 4 configuration: a 16-tile CMP on
// a 4x4 mesh, 64-byte lines, 32KB/4-way L1s, 512KB/8-way L2 banks, four
// memory controllers, 8/72-byte messages and the fault-tolerance timeouts
// used in the evaluation.
func DefaultConfig() Config {
	return Config{
		Protocol:           FtDirCMP,
		MeshWidth:          4,
		MeshHeight:         4,
		MemControllers:     4,
		LineSize:           64,
		L1Size:             32 * 1024,
		L1Ways:             4,
		L2BankSize:         512 * 1024,
		L2Ways:             8,
		L1HitLatency:       3,
		L2HitLatency:       15,
		MemLatency:         160,
		HopLatency:         4,
		LocalLatency:       1,
		FlitBytes:          16,
		ControlMsgSize:     8,
		DataMsgSize:        72,
		MigratoryOpt:       true,
		SerialNumberBits:   8,
		LostRequestTimeout: 2000,
		LostUnblockTimeout: 3000,
		LostAckBDTimeout:   3000,
		BackupTimeout:      4000,
		OpsPerCore:         2000,
		ThinkTime:          4,
		Seed:               1,
		CycleLimit:         200_000_000,
		CheckIntegrity:     true,
	}
}

// QuickConfig returns the scaled-down 2x2 system the quick campaign modes
// use (ftcheck's -quick, the exhaustive coverage gate, and ftserve's
// "quick": true requests): four tiles, two memory controllers, 8KB L1s and
// 32KB L2 banks, with every other parameter as DefaultConfig. Its
// canonical content hash is pinned by a golden test (see internal/canon),
// because the serving cache keys derive from configurations like this one.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.MeshWidth = 2
	cfg.MeshHeight = 2
	cfg.MemControllers = 2
	cfg.L1Size = 8 * 1024
	cfg.L2BankSize = 32 * 1024
	return cfg
}

// toInternal converts the public configuration.
func (c Config) toInternal() system.Config {
	return system.Config{
		Protocol:   c.Protocol,
		MeshWidth:  c.MeshWidth,
		MeshHeight: c.MeshHeight,
		Mems:       c.MemControllers,
		Params: proto.Params{
			LineSize:           c.LineSize,
			L1Size:             c.L1Size,
			L1Ways:             c.L1Ways,
			L2Size:             c.L2BankSize,
			L2Ways:             c.L2Ways,
			L1HitLatency:       c.L1HitLatency,
			L2HitLatency:       c.L2HitLatency,
			MemLatency:         c.MemLatency,
			MigratoryOpt:       c.MigratoryOpt,
			SerialBits:         c.SerialNumberBits,
			LostRequestTimeout: c.LostRequestTimeout,
			LostUnblockTimeout: c.LostUnblockTimeout,
			LostAckBDTimeout:   c.LostAckBDTimeout,
			BackupTimeout:      c.BackupTimeout,
			DisablePiggyback:   c.DisableAckOPiggyback,
		},
		Net: noc.Config{
			HopLatency:      c.HopLatency,
			LocalLatency:    c.LocalLatency,
			FlitBytes:       c.FlitBytes,
			ControlSize:     c.ControlMsgSize,
			DataSize:        c.DataMsgSize,
			Routing:         routingOf(c.UnorderedNetwork),
			RoutingSeed:     c.Seed,
			DetailedRouters: c.DetailedNetwork,
			BufferFlits:     bufferFlitsOf(c),
		},
		OpsPerCore:     c.OpsPerCore,
		ThinkTime:      c.ThinkTime,
		Seed:           c.Seed,
		Limit:          c.CycleLimit,
		CheckIntegrity: c.CheckIntegrity,
	}
}

// injector builds the fault injector described by the configuration.
func (c Config) injector() fault.Injector {
	if c.FaultRatePerMillion <= 0 {
		return nil
	}
	var inj fault.Injector
	if c.FaultBurstLen > 1 {
		inj = fault.NewBurst(c.FaultRatePerMillion, c.FaultBurstLen, c.FaultSeed)
	} else {
		inj = fault.NewRate(c.FaultRatePerMillion, c.FaultSeed)
	}
	if c.CorruptInsteadOfDrop {
		inj = fault.NewCorrupting(inj, c.FaultSeed^0xc0de)
	}
	return inj
}

// recorder builds the observability recorder every run carries: a full
// event ring when RecordEvents is set, a metrics-only recorder otherwise.
func (c Config) recorder() *obs.Recorder {
	capacity := 0
	if c.RecordEvents {
		capacity = c.EventBufferSize
		if capacity <= 0 {
			capacity = 65536
		}
	}
	return obs.NewRecorder(capacity)
}

// topology mirrors the internal node numbering, used to label event nodes.
func (c Config) topology() proto.Topology {
	return proto.Topology{
		Tiles:    c.MeshWidth * c.MeshHeight,
		Mems:     c.MemControllers,
		LineSize: c.LineSize,
	}
}

func routingOf(unordered bool) noc.Routing {
	if unordered {
		return noc.RoutingAdaptive
	}
	return noc.RoutingXY
}

func bufferFlitsOf(c Config) int {
	if !c.DetailedNetwork {
		return 0
	}
	if c.RouterBufferFlits > 0 {
		return c.RouterBufferFlits
	}
	return 16
}

// Workloads returns the names of the built-in workloads (the stand-in for
// the paper's benchmark suite; see DESIGN.md §4).
func Workloads() []string {
	suite := workload.Suite()
	out := make([]string, len(suite))
	for i, w := range suite {
		out[i] = w.Name()
	}
	return out
}

// WorkloadExtras returns the names of the special-purpose workloads that
// resolve by name but are not part of the benchmark suite (currently the
// model checker's handoff shape; see docs/MODELCHECK.md).
func WorkloadExtras() []string {
	extras := workload.Extras()
	out := make([]string, len(extras))
	for i, w := range extras {
		out[i] = w.Name()
	}
	return out
}

// MessageTypes returns all coherence message type names (Tables 1 and 2).
func MessageTypes() []string {
	types := msg.AllTypes()
	out := make([]string, len(types))
	for i, t := range types {
		out[i] = t.String()
	}
	return out
}

// Run is RunContext without a context.
func Run(cfg Config, workloadName string) (*Result, error) {
	return RunContext(context.Background(), cfg, workloadName)
}

// RunContext simulates the named workload to completion and returns the
// measured results. It fails on deadlock (DirCMP under faults), cycle-limit
// exhaustion, or any coherence/data-integrity violation. When ctx is
// cancelled (a server deadline, client disconnect or SIGINT) the
// simulation aborts promptly and the error wraps ctx's cancellation cause,
// so callers can test it with errors.Is(err, context.Canceled).
// Cancellation never yields a partial Result.
func RunContext(ctx context.Context, cfg Config, workloadName string) (*Result, error) {
	return RunWithInjectorContext(ctx, cfg, workloadName, cfg.injector())
}

// RunWithInjectorContext is RunContext with an explicit fault injector
// (overriding the configuration's rate fields). inj may be nil for a
// reliable network.
func RunWithInjectorContext(ctx context.Context, cfg Config, workloadName string, inj fault.Injector) (*Result, error) {
	w, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	return runResult(ctx, cfg, w, inj)
}

// runResult runs w and collects the full Result of a successful run,
// with its transaction spans when cfg.RecordSpans is set.
func runResult(ctx context.Context, cfg Config, w workload.Workload, inj fault.Injector) (*Result, error) {
	rec := cfg.recorder()
	var spanEvents []obs.Event
	if cfg.RecordSpans {
		rec.EnableMessageFeed()
		rec.SetSink(func(e obs.Event) { spanEvents = append(spanEvents, e) })
	}
	s, run, err := simulate(ctx, cfg, w, inj, rec)
	if err != nil {
		return nil, err
	}
	res := newResult(run, rec, cfg.topology())
	res.MemoryImageHash = s.MemoryImageHash()
	if cfg.RecordSpans {
		res.spans = span.Build(spanEvents, cfg.topology())
		res.breakdown = span.Aggregate(res.spans)
	}
	return res, nil
}

// simulate is the one place a repro run builds its system: it converts
// cfg, attaches inj, ctx's cancellation and rec, and runs w. A cancelled
// run's error wraps ctx's cause. The system and its statistics come back
// with a run error too (coverage outcomes report them); s is nil only when
// the system could not be built.
func simulate(ctx context.Context, cfg Config, w workload.Workload, inj fault.Injector, rec *obs.Recorder) (s *system.System, run *stats.Run, err error) {
	if s, err = newSystem(ctx, cfg, inj, rec); err != nil {
		return nil, nil, err
	}
	run, err = runOn(ctx, s, w)
	return s, run, err
}

// newSystem builds the system simulate runs: cfg converted, with inj,
// ctx's cancellation and rec attached.
func newSystem(ctx context.Context, cfg Config, inj fault.Injector, rec *obs.Recorder) (*system.System, error) {
	sysCfg := cfg.toInternal()
	sysCfg.Injector = inj
	sysCfg.Cancel = ctx.Done()
	sysCfg.Obs = rec
	return system.New(sysCfg)
}

// runOn runs w on a built (or reset) system; a cancelled run's error wraps
// ctx's cause.
func runOn(ctx context.Context, s *system.System, w workload.Workload) (*stats.Run, error) {
	run, err := s.Run(w)
	if errors.Is(err, system.ErrCancelled) {
		if cause := context.Cause(ctx); cause != nil {
			err = fmt.Errorf("%v: %w", err, cause)
		}
	}
	return run, err
}

// coverageRing is the event ring of every coverage run: a small ring gives
// deadlock dumps their last-event context without the cost of full event
// retention.
const coverageRing = 4096

// campaignWorker is one campaign worker's simulation: a system and the
// event recorder wired into it, both reset between runs.
type campaignWorker struct {
	sys *system.System
	rec *obs.Recorder
}

// coverageRun is the RunFunc of the fault campaigns, message loss and
// tile or link death alike: one run of w under the campaign's injector,
// reduced to a coverage.Outcome. Integrity checking is forced on (the
// verdict depends on it). image adds the per-line memory image the
// tile-death verdict compares.
//
// Each run takes a worker from a free list, resets its system and recorder
// with the run's injector, runs and puts the worker back: the list holds
// at most one worker per campaign worker (cfg.Parallelism), built on first
// use. It is a buffered channel rather than a sync.Pool, which the GC may
// empty, so how many systems a campaign builds does not depend on GC
// timing. A reset system runs exactly as a fresh one built with the same
// injector (System.Reset), so the outcomes are those of fresh systems.
func coverageRun(ctx context.Context, cfg Config, w workload.Workload, image bool) coverage.RunFunc {
	cfg.CheckIntegrity = true
	free := make(chan campaignWorker, runner.Parallelism(cfg.Parallelism))
	return func(inj fault.Injector) coverage.Outcome {
		var wk campaignWorker
		select {
		case wk = <-free:
			if err := wk.sys.Reset(inj); err != nil {
				free <- wk
				return coverage.Outcome{Err: err.Error()}
			}
		default:
			wk.rec = obs.NewRecorder(coverageRing)
			var err error
			if wk.sys, err = newSystem(ctx, cfg, inj, wk.rec); err != nil {
				return coverage.Outcome{Err: err.Error()}
			}
		}
		st, err := runOn(ctx, wk.sys, w)
		out := coverageOutcome(wk.sys, st, wk.rec, err, image)
		free <- wk
		return out
	}
}

// coverageOutcome reduces a finished coverage run to its Outcome. image
// adds the per-line memory image; message-loss campaigns judge the image
// hash alone and skip building it.
func coverageOutcome(s *system.System, st *stats.Run, rec *obs.Recorder, err error, image bool) coverage.Outcome {
	out := coverage.Outcome{Cycles: st.Cycles}
	m := rec.Metrics()
	out.FaultsInjected = m.FaultsInjected
	out.FaultsRecovered = m.FaultsRecovered
	out.RecoveryLatencyMax = m.RecoveryLatency.Max()
	for _, k := range obs.AllTimeoutKinds() {
		out.Timeouts[k] = m.TimeoutsByKind[k]
	}
	rcv := s.Recovery()
	out.DeathDeclared = rcv.Declared
	out.LinesUnrecoverable = rcv.LinesUnrecoverable
	out.UnrecoverableAddrs = rcv.UnrecoverableAddrs
	if rcv.Declared && rcv.ReconstructedCycle >= rcv.DeathCycle {
		out.ReconstructLatency = rcv.ReconstructedCycle - rcv.DeathCycle
	}
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.MemHash = s.MemoryImageHash()
	if image {
		out.Image = s.MemoryImage()
	}
	return out
}

// CompareContext runs the same workload under both protocols on a
// reliable network, the fault-free comparison of the paper's evaluation.
// The two runs execute concurrently under cfg.Parallelism. Cancellation
// aborts both runs and the error wraps ctx's cause.
func CompareContext(ctx context.Context, cfg Config, workloadName string) (dir, ft *Result, err error) {
	protocols := []Protocol{DirCMP, FtDirCMP}
	results, err := runner.MapContext(ctx, cfg.Parallelism, len(protocols), func(ctx context.Context, i int) (*Result, error) {
		c := cfg
		c.Protocol = protocols[i]
		c.FaultRatePerMillion = 0
		res, err := RunContext(ctx, c, workloadName)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", protocols[i], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results[0], results[1], nil
}

// SweepConfig returns the configuration FaultSweepContext simulates for one loss
// rate: FtDirCMP at rate messages lost per million, with a deterministic
// per-rate fault seed when the configuration does not pin one.
func SweepConfig(cfg Config, rate int) Config {
	c := cfg
	c.Protocol = FtDirCMP
	c.FaultRatePerMillion = rate
	if c.FaultSeed == 0 {
		c.FaultSeed = uint64(rate)*7919 + 17
	}
	return c
}

// ProgressSnapshot is a race-safe live view of a running campaign: jobs
// done, messages dropped, open recovery windows, elapsed wall time and an
// ETA. See FaultSweepContext and internal/runner.
type ProgressSnapshot = runner.Snapshot

// FaultSweepContext runs FtDirCMP on the workload at each loss rate
// (messages per million), reproducing the sweep behind the paper's
// Figure 3. The rate points execute concurrently under cfg.Parallelism;
// results come back in rate order and are identical at every parallelism
// level. Once ctx is cancelled no further rate point starts, in-flight
// simulations abort, and the error wraps ctx's cause. progress, when
// non-nil, is invoked serially after each completed rate point; it never
// changes the results (only the callback order is completion order).
func FaultSweepContext(ctx context.Context, cfg Config, workloadName string, rates []int, progress func(ProgressSnapshot)) ([]*Result, error) {
	tracker := runner.NewTracker(len(rates))
	var mu sync.Mutex
	return runner.MapContext(ctx, cfg.Parallelism, len(rates), func(ctx context.Context, i int) (*Result, error) {
		rate := rates[i]
		res, err := RunContext(ctx, SweepConfig(cfg, rate), workloadName)
		if err != nil {
			return nil, fmt.Errorf("rate %d: %w", rate, err)
		}
		res.FaultRatePerMillion = rate
		tracker.JobDone(res.Dropped, res.FaultsUnattributed)
		if progress != nil {
			mu.Lock()
			progress(tracker.Snapshot())
			mu.Unlock()
		}
		return res, nil
	})
}

// RecoveryOutcome reports one targeted-drop correctness run.
type RecoveryOutcome struct {
	Type      string // message type dropped
	Nth       uint64 // which occurrence was dropped
	Fired     bool   // whether the drop actually happened in the run
	Dropped   uint64 // messages the injector lost (0 or 1 for a targeted drop)
	Recovered bool   // whether the run completed correctly
	Err       error  // failure detail when Recovered is false
}

// CheckRecoveryContext drops the nth message of the given type in an
// FtDirCMP run and reports whether the protocol recovered (the paper's §4
// fault injection methodology). A cancelled run is an error (the campaign
// was interrupted), not a recovery failure.
func CheckRecoveryContext(ctx context.Context, cfg Config, workloadName, msgType string, nth uint64) (RecoveryOutcome, error) {
	var typ msg.Type
	found := false
	for _, t := range msg.AllTypes() {
		if t.String() == msgType {
			typ = t
			found = true
			break
		}
	}
	if !found {
		return RecoveryOutcome{}, fmt.Errorf("repro: unknown message type %q", msgType)
	}
	c := cfg
	c.Protocol = FtDirCMP
	inj := fault.NewNthOfType(typ, nth)
	_, err := RunWithInjectorContext(ctx, c, workloadName, inj)
	if err != nil && ctx.Err() != nil {
		return RecoveryOutcome{}, err
	}
	return RecoveryOutcome{
		Type:      msgType,
		Nth:       nth,
		Fired:     inj.Fired(),
		Dropped:   inj.Dropped(),
		Recovered: err == nil,
		Err:       err,
	}, nil
}

// CoverageReport is the aggregated matrix of an exhaustive fault-coverage
// campaign; see CoverageContext and docs/COVERAGE.md.
type CoverageReport = coverage.Report

// CoverageOptions tunes a CoverageContext campaign. The zero value runs the
// exhaustive single-loss campaign with no double-fault sampling. Its JSON
// form, without Progress, is the "coverage" params of an ftserve request
// (docs/SERVICE.md).
type CoverageOptions struct {
	// MaxSlotsPerType caps the tested slots per message type (0 =
	// exhaustive). Sampled types are flagged in the report.
	MaxSlotsPerType int `json:"max_slots_per_type,omitempty"`
	// DoubleFaultSamples adds that many sampled double-fault runs: a
	// slot's drop plus a second drop in the recovery window (half chase
	// the dropped message's reissue, half drop a nearby message).
	DoubleFaultSamples int `json:"double_fault_samples,omitempty"`
	// DoubleFaultWindow bounds the second drop's distance in injectable
	// messages (0 = default 50).
	DoubleFaultWindow int `json:"double_fault_window,omitempty"`
	// Seed drives the double-fault sampling (independent of Config.Seed).
	Seed uint64 `json:"seed,omitempty"`
	// Progress, when set, is called after each run, double-fault samples
	// included, with running counts against the whole campaign's total.
	Progress func(done, total int) `json:"-"`
}

// Coverage is CoverageContext without a context.
func Coverage(cfg Config, workloadName string, opt CoverageOptions) (*CoverageReport, error) {
	return CoverageContext(context.Background(), cfg, workloadName, opt)
}

// CoverageContext runs the exhaustive fault-coverage campaign on the
// configured protocol: one fault-free census run enumerating every
// injectable message as a (type, k-th occurrence) slot, then one run per
// slot dropping exactly that message, verifying each run terminates,
// passes the coherence checker and the data-value oracle, and reproduces
// the fault-free final memory image. Slot runs execute concurrently under
// cfg.Parallelism; the report is identical at every parallelism level.
// Integrity checking is forced on (the verification depends on it). A
// per-slot failure is part of the report, not an error; only a failing
// baseline (or an invalid configuration) returns one. Once ctx is
// cancelled no further run starts, in-flight runs abort, and the campaign
// returns an error wrapping ctx's cause instead of a report — also when
// the cancellation lands during the double-fault samples.
func CoverageContext(ctx context.Context, cfg Config, workloadName string, opt CoverageOptions) (*CoverageReport, error) {
	w, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	rep, err := coverage.RunContext(ctx, coverageRun(ctx, cfg, w, false), coverage.Options{
		Parallelism:        cfg.Parallelism,
		MaxSlotsPerType:    opt.MaxSlotsPerType,
		DoubleFaultSamples: opt.DoubleFaultSamples,
		DoubleFaultWindow:  opt.DoubleFaultWindow,
		Seed:               opt.Seed,
		Progress:           opt.Progress,
	})
	if err != nil {
		return nil, err
	}
	rep.Protocol = cfg.Protocol.String()
	rep.Workload = workloadName
	return rep, nil
}

// TileDeathOptions tunes a TileDeathCoverageContext campaign. The zero
// value kills every tile at every enumerated injection slot, with no link
// sweep. Its JSON form, without Progress, is the "tile_death" params of an
// ftserve request (docs/SERVICE.md).
type TileDeathOptions struct {
	// MaxSlotsPerType caps the injection slots tested per message type for
	// each victim (0 = exhaustive). Sampled rows are flagged in the report.
	MaxSlotsPerType int `json:"max_slots_per_type,omitempty"`
	// IncludeLinks adds a link-death sweep: every mesh link is killed at
	// every enumerated slot, one report row per link. A link death must
	// preserve the full fault-free memory image (no node dies with it).
	IncludeLinks bool `json:"include_links,omitempty"`
	// Progress, when set, is called after each run with running counts.
	Progress func(done, total int) `json:"-"`
}

// TileDeathCoverageContext runs the structural-fault campaign: one
// fault-free census run, then — for every tile and every enumerated
// injection slot — one run in which that tile (core, L1, L2 bank and
// directory slice) dies permanently at that instant. Each run must
// terminate quiescent, pass the coherence checker and the data-value
// oracle on the survivors, and satisfy the extended memory-image verdict:
// no line ahead of the fault-free baseline, only lines written by the
// victim's own stream may lag it, lines the reconstruction reported
// unrecoverable are excluded but counted, and every other line must match
// exactly. See docs/COVERAGE.md ("Structural faults"). Runs execute
// concurrently under cfg.Parallelism; the report is byte-identical at
// every parallelism level. Under DirCMP the campaign documents the
// contrast: every run deadlocks. Cancellation follows CoverageContext's
// contract.
func TileDeathCoverageContext(ctx context.Context, cfg Config, workloadName string, opt TileDeathOptions) (*CoverageReport, error) {
	w, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	var links [][2]int
	if opt.IncludeLinks {
		links = meshLinks(cfg.MeshWidth, cfg.MeshHeight)
	}
	rep, err := coverage.RunStructuralContext(ctx, coverageRun(ctx, cfg, w, true), coverage.StructuralOptions{
		Parallelism:     cfg.Parallelism,
		MaxSlotsPerType: opt.MaxSlotsPerType,
		Tiles:           cfg.MeshWidth * cfg.MeshHeight,
		Links:           links,
		VictimWrites:    victimWriteSets(cfg, w),
		Progress:        opt.Progress,
	})
	if err != nil {
		return nil, err
	}
	rep.Protocol = cfg.Protocol.String()
	rep.Workload = workloadName
	return rep, nil
}

// victimWriteSets precomputes, per tile, the line addresses the tile's
// operation list writes, from the lists the system itself runs
// (workload.PerCore). The restricted tile-death verdict allows exactly
// those lines to lag the baseline.
func victimWriteSets(cfg Config, w workload.Workload) func(tile int) map[msg.Addr]bool {
	perCore := workload.PerCore(w, cfg.MeshWidth*cfg.MeshHeight, cfg.OpsPerCore, cfg.Seed)
	sets := make([]map[msg.Addr]bool, len(perCore))
	for i, ops := range perCore {
		set := make(map[msg.Addr]bool)
		for _, op := range ops {
			if op.Write {
				set[msg.Addr(op.Line)*msg.Addr(cfg.LineSize)] = true
			}
		}
		sets[i] = set
	}
	return func(tile int) map[msg.Addr]bool { return sets[tile] }
}

// meshLinks enumerates every link of a w×h mesh as adjacent router pairs,
// in router-major order.
func meshLinks(w, h int) [][2]int {
	var links [][2]int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := y*w + x
			if x+1 < w {
				links = append(links, [2]int{r, r + 1})
			}
			if y+1 < h {
				links = append(links, [2]int{r, r + w})
			}
		}
	}
	return links
}
