package repro

import (
	"fmt"
	"io"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/span"
	"repro/internal/stats"
)

// Result holds everything measured in one simulation — the quantities the
// paper's evaluation reports, plus the fault-tolerance event counters.
type Result struct {
	Protocol string
	Workload string

	// FaultRatePerMillion is the injected loss rate (set by FaultSweepContext).
	FaultRatePerMillion int

	// Execution.
	Cycles uint64
	Ops    uint64

	// L1 behaviour.
	ReadHits, WriteHits     uint64
	ReadMisses, WriteMisses uint64
	AvgMissLatency          float64
	// MissLatencyP50/P95/P99 are nearest-rank percentiles (ceiling rank)
	// reported at the histogram's power-of-two bucket granularity, as
	// upper bounds.
	MissLatencyP50        uint64
	MissLatencyP95        uint64
	MissLatencyP99        uint64
	MissLatencyMax        uint64
	CacheToCacheTransfers uint64
	MigratoryGrants       uint64
	Writebacks            uint64
	L2Misses              uint64

	// Network traffic (the Figure 4 quantities).
	Messages           uint64
	Bytes              uint64
	Dropped            uint64
	AvgNetLatency      float64
	MessagesByCategory map[string]uint64
	BytesByCategory    map[string]uint64

	// Fault tolerance events (zero for DirCMP).
	AcksOSent           uint64
	PiggybackedAcksO    uint64
	LostRequestTimeouts uint64
	LostUnblockTimeouts uint64
	LostAckBDTimeouts   uint64
	BackupTimeouts      uint64
	RequestsReissued    uint64
	StaleSNDiscarded    uint64
	FalsePositives      uint64

	// Token-protocol events (TokenCMP/FtTokenCMP only).
	TokenRetries       uint64
	PersistentRequests uint64
	TokenRecreations   uint64
	TokenSerialPeak    uint64

	// Observability, derived from the structured protocol event log (see
	// docs/OBSERVABILITY.md). FaultsInjected counts injected message
	// losses that took effect; FaultsRecovered counts those whose cache
	// line completed a transaction afterwards (the protocol recovered);
	// FaultsUnattributed is the difference — losses whose line never
	// completed again before the run ended (typically drops of messages
	// that were already superseded).
	FaultsInjected     uint64
	FaultsRecovered    uint64
	FaultsUnattributed uint64

	// Recovery latency: cycles from an injected fault taking effect to
	// the faulted line's next completed transaction. Percentiles are
	// nearest-rank at power-of-two bucket granularity, like the miss
	// latency percentiles above. All zero when no fault recovered.
	RecoveryLatencyMean float64
	RecoveryLatencyP50  uint64
	RecoveryLatencyP95  uint64
	RecoveryLatencyP99  uint64
	RecoveryLatencyMax  uint64

	// EventsByKind counts the structured events emitted per kind name
	// ("timeout", "reissue", "backup.create", ...), zero kinds omitted.
	// Collected even when RecordEvents is off.
	EventsByKind map[string]uint64

	// MemoryImageHash condenses the final memory image — the committed
	// write-count (version) of every line, which is a deterministic
	// function of the workload alone — into one hash. Two runs of the same
	// workload must agree on it no matter what faults were injected; the
	// coverage harness (see Coverage) verifies exactly that.
	MemoryImageHash uint64

	// ReportText is a rendered human-readable summary.
	ReportText string

	events    []obs.Event
	spans     []*span.Span
	breakdown *span.Breakdown
	topo      proto.Topology
}

// Events returns the retained structured protocol events, oldest first.
// Empty unless the run's Config set RecordEvents.
func (r *Result) Events() []obs.Event { return r.events }

// WriteEventsJSONL writes the retained event log as JSON Lines, one event
// per line in emission order. The output is deterministic: a re-run at the
// same configuration and seeds is byte-identical.
func (r *Result) WriteEventsJSONL(w io.Writer) error {
	return obs.WriteJSONL(w, r.events)
}

// WriteChromeTrace writes the retained event log in the Chrome trace-event
// JSON format, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing: one track per node, instant events per protocol event,
// and duration slices spanning each injected fault's recovery window.
func (r *Result) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, r.events, r.nodeName)
}

// Spans returns the reconstructed coherence transaction spans, in start
// order. Empty unless the run's Config set RecordSpans. See internal/span
// and docs/OBSERVABILITY.md for the phase taxonomy.
func (r *Result) Spans() []*span.Span { return r.spans }

// Breakdown returns the per-miss-class latency attribution aggregated over
// the run's spans: counts, total and mean cycles, and per-phase totals per
// class. Nil unless the run's Config set RecordSpans.
func (r *Result) Breakdown() *span.Breakdown { return r.breakdown }

// WriteSpansJSONL writes the reconstructed spans as JSON Lines, one span
// per line in start order, with the phase breakdown and attributed segments
// inline. Deterministic: a re-run at the same configuration and seeds is
// byte-identical at every parallelism level.
func (r *Result) WriteSpansJSONL(w io.Writer) error {
	return span.WriteJSONL(w, r.spans)
}

// WriteSpansChromeTrace writes the spans in the Chrome trace-event JSON
// format: one Perfetto lane per transaction, the span as the root slice and
// its phase segments nested inside.
func (r *Result) WriteSpansChromeTrace(w io.Writer) error {
	return span.WriteChromeTrace(w, r.spans, r.nodeName)
}

// NodeNamer returns the run's topology-aware node labeller, for trace
// exporters outside this package (the serving layer's unified service
// trace embeds the span lanes and needs the same lane names).
func (r *Result) NodeNamer() func(msg.NodeID) string { return r.nodeName }

// nodeName labels a node for trace export using the run's topology.
func (r *Result) nodeName(id msg.NodeID) string {
	t := r.topo
	switch {
	case t.IsL1(id):
		return fmt.Sprintf("L1.%d", t.TileOf(id))
	case t.IsL2(id):
		return fmt.Sprintf("L2.%d", t.TileOf(id))
	case t.IsMem(id):
		return fmt.Sprintf("Mem.%d", int(id)-2*t.Tiles-1)
	}
	return fmt.Sprintf("node.%d", int(id))
}

func newResult(run *stats.Run, rec *obs.Recorder, topo proto.Topology) *Result {
	r := &Result{
		Protocol:              run.Protocol,
		Workload:              run.Workload,
		Cycles:                run.Cycles,
		Ops:                   run.Ops,
		ReadHits:              run.Proto.ReadHits,
		WriteHits:             run.Proto.WriteHits,
		ReadMisses:            run.Proto.ReadMisses,
		WriteMisses:           run.Proto.WriteMisses,
		AvgMissLatency:        run.Proto.AvgMissLatency(),
		MissLatencyP50:        run.Proto.MissLatencyHist.Percentile(50),
		MissLatencyP95:        run.Proto.MissLatencyHist.Percentile(95),
		MissLatencyP99:        run.Proto.MissLatencyHist.Percentile(99),
		MissLatencyMax:        run.Proto.MissLatencyHist.Max(),
		CacheToCacheTransfers: run.Proto.CacheToCacheTransfers,
		MigratoryGrants:       run.Proto.MigratoryGrants,
		Writebacks:            run.Proto.Writebacks,
		L2Misses:              run.Proto.L2Misses,
		Messages:              run.Net.TotalMessages(),
		Bytes:                 run.Net.TotalBytes(),
		Dropped:               run.Net.TotalDropped(),
		AvgNetLatency:         run.Net.AvgLatency(),
		MessagesByCategory:    make(map[string]uint64, msg.NumCategories()),
		BytesByCategory:       make(map[string]uint64, msg.NumCategories()),
		AcksOSent:             run.Proto.AcksOSent,
		PiggybackedAcksO:      run.Proto.PiggybackedAcksO,
		LostRequestTimeouts:   run.Proto.LostRequestTimeouts,
		LostUnblockTimeouts:   run.Proto.LostUnblockTimeouts,
		LostAckBDTimeouts:     run.Proto.LostAckBDTimeouts,
		BackupTimeouts:        run.Proto.BackupTimeouts,
		RequestsReissued:      run.Proto.RequestsReissued,
		StaleSNDiscarded:      run.Proto.StaleSNDiscarded,
		FalsePositives:        run.Proto.FalsePositives,
		TokenRetries:          run.Proto.TokenRetries,
		PersistentRequests:    run.Proto.PersistentRequests,
		TokenRecreations:      run.Proto.TokenRecreations,
		TokenSerialPeak:       run.Proto.TokenSerialPeak,
		ReportText:            run.Report(),
	}
	for cat, n := range run.Net.MessagesByCategory() {
		r.MessagesByCategory[cat.String()] = n
	}
	for cat, n := range run.Net.BytesByCategory() {
		r.BytesByCategory[cat.String()] = n
	}
	r.topo = topo
	if m := rec.Metrics(); m != nil {
		r.FaultsInjected = m.FaultsInjected
		r.FaultsRecovered = m.FaultsRecovered
		r.FaultsUnattributed = m.Unattributed()
		r.RecoveryLatencyMean = m.RecoveryLatency.Mean()
		r.RecoveryLatencyP50 = m.RecoveryLatency.Percentile(50)
		r.RecoveryLatencyP95 = m.RecoveryLatency.Percentile(95)
		r.RecoveryLatencyP99 = m.RecoveryLatency.Percentile(99)
		r.RecoveryLatencyMax = m.RecoveryLatency.Max()
		r.EventsByKind = m.KindCounts()
		r.events = rec.Events()
	}
	return r
}

// MessageOverheadVs returns this run's message count relative to a
// baseline run (1.30 = 30% more messages): the Figure 4 left metric.
func (r *Result) MessageOverheadVs(base *Result) float64 {
	if base.Messages == 0 {
		return 0
	}
	return float64(r.Messages) / float64(base.Messages)
}

// ByteOverheadVs returns this run's byte count relative to a baseline run:
// the Figure 4 right metric.
func (r *Result) ByteOverheadVs(base *Result) float64 {
	if base.Bytes == 0 {
		return 0
	}
	return float64(r.Bytes) / float64(base.Bytes)
}

// TimeOverheadVs returns this run's execution time normalized to a
// baseline run: the Figure 3 vertical axis.
func (r *Result) TimeOverheadVs(base *Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}
