// Package coverage is the exhaustive fault-coverage harness: it proves, by
// construction, that a protocol recovers from every single lost message a
// workload can experience.
//
// The campaign has three phases (the paper's §4 methodology, taken to its
// limit):
//
//  1. Census. The workload runs once fault-free under a counting injector
//     that observes every injectable message without dropping any. This
//     enumerates the complete fault space as (message type, k-th
//     occurrence) slots and records the baseline: cycle count and the
//     final memory image.
//  2. Exploration. The workload re-runs once per slot with a
//     fault.NthOfType injector that drops exactly that message. Every
//     simulation is a pure function of configuration and seeds, so the run
//     prefix before the drop is identical to the baseline — each
//     enumerated slot is guaranteed to fire. Runs fan out through
//     internal/runner; results are aggregated in slot order, so the report
//     is byte-identical at every parallelism level.
//  3. Verification. A slot counts as recovered only if its run terminated
//     before the cycle limit, passed the coherence checker and the
//     data-value oracle, and produced the same final memory image as the
//     fault-free baseline (per-line committed-write versions; see
//     docs/COVERAGE.md for why versions, not values, are the
//     timing-invariant image).
//
// The harness can also sample double-fault campaigns: a slot's drop plus a
// second drop a bounded number of messages later — in particular the
// "lost request, then its reissue also lost" scenario the paper's
// fault-detection timeouts must survive.
package coverage

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/sim"
)

// Census is a fault.Injector that never drops anything: it counts every
// injectable message per type, enumerating the fault space of a run.
type Census struct {
	counts []uint64
	total  uint64
}

// NewCensus returns an empty census.
func NewCensus() *Census {
	return &Census{counts: make([]uint64, msg.NumTypes()+1)}
}

// Drop implements fault.Injector; it counts and never drops.
func (c *Census) Drop(m *msg.Message) bool {
	if int(m.Type) < len(c.counts) {
		c.counts[m.Type]++
	}
	c.total++
	return false
}

// Dropped implements fault.Injector (a census loses nothing).
func (c *Census) Dropped() uint64 { return 0 }

// Description implements fault.Injector.
func (c *Census) Description() string { return "census (counts injectable messages, drops none)" }

// Total returns the number of injectable messages observed.
func (c *Census) Total() uint64 { return c.total }

// Count returns the occurrences of one message type.
func (c *Census) Count(t msg.Type) uint64 {
	if int(t) >= len(c.counts) {
		return 0
	}
	return c.counts[t]
}

// Types returns the message types observed at least once, ascending.
func (c *Census) Types() []msg.Type {
	var out []msg.Type
	for t := 1; t < len(c.counts); t++ {
		if c.counts[t] > 0 {
			out = append(out, msg.Type(t))
		}
	}
	return out
}

// Slot identifies one point of the fault space: the Nth occurrence (1-based)
// of a message type in the deterministic fault-free run.
type Slot struct {
	Type msg.Type
	Nth  uint64
}

// EnumerateSlots expands a census into the slot list, in type order then
// occurrence order. maxPerType > 0 caps the slots per type, sampling
// occurrences at a deterministic stride across the full range (the first
// occurrence is always included); 0 means exhaustive.
func EnumerateSlots(c *Census, maxPerType int) []Slot {
	var out []Slot
	for _, t := range c.Types() {
		n := c.Count(t)
		if maxPerType <= 0 || n <= uint64(maxPerType) {
			for k := uint64(1); k <= n; k++ {
				out = append(out, Slot{Type: t, Nth: k})
			}
			continue
		}
		for i := 0; i < maxPerType; i++ {
			out = append(out, Slot{Type: t, Nth: 1 + uint64(i)*n/uint64(maxPerType)})
		}
	}
	return out
}

// Recovered is the recovery verdict for one perturbed run against the
// fault-free baseline: the run must finish with no error AND converge to
// the baseline's final memory image (per-line committed-write versions —
// interleaving- and timing-invariant, see System.MemoryImage). The
// coverage campaigns apply it to every injected fault; the model checker
// (internal/mc) applies it, after System.Finish, to every terminal state
// of its interleaving exploration and of its replays.
func Recovered(out, base Outcome) bool {
	return out.Err == "" && out.MemHash == base.MemHash
}

// VerdictErr explains a run that failed the Recovered verdict: its own
// error if it had one, otherwise the memory-image divergence. It returns
// "" for a run that passed.
func VerdictErr(out, base Outcome) string {
	if Recovered(out, base) {
		return ""
	}
	if out.Err != "" {
		return out.Err
	}
	return fmt.Sprintf("final memory image diverged: %#x != baseline %#x", out.MemHash, base.MemHash)
}

// Outcome reports one simulation back to the harness. Err is empty when the
// run terminated and passed every end-of-run check; the remaining fields
// are best-effort on failed runs (MemHash only on success).
type Outcome struct {
	Err    string
	Cycles uint64
	// Timeouts counts fault-detection timeout firings per obs.TimeoutKind.
	Timeouts [5]uint64
	// FaultsInjected/FaultsRecovered are the recovery windows opened and
	// closed (from the observability metrics); RecoveryLatencyMax is the
	// slowest recovery in cycles.
	FaultsInjected     uint64
	FaultsRecovered    uint64
	RecoveryLatencyMax uint64
	// MemHash is the final memory-image hash (per-line committed-write
	// versions); zero on failed runs.
	MemHash uint64

	// Structural-fault fields (zero when no tile died): the full final
	// memory image (per-line committed versions — the restricted verdict
	// needs more than a hash; structural campaigns only), whether the tile
	// death was declared by the survivors, the reconstruction accounting,
	// and the death-to-reconstructed latency.
	Image              map[msg.Addr]uint64
	DeathDeclared      bool
	LinesUnrecoverable int
	UnrecoverableAddrs []msg.Addr
	ReconstructLatency uint64
}

// RunFunc runs the workload under the given injector and reports the
// outcome. It must be safe for concurrent calls and deterministic: the same
// injector behaviour must always produce the same Outcome. The top-level
// repro package provides the implementation (the harness itself is
// protocol-agnostic).
type RunFunc func(inj fault.Injector) Outcome

// Options configures a coverage campaign.
type Options struct {
	// Parallelism bounds concurrent simulations (0 = all cores). The
	// report is identical at every level.
	Parallelism int
	// MaxSlotsPerType caps tested slots per message type (0 = exhaustive).
	// Capped types are flagged in the report — sampling is never silent.
	MaxSlotsPerType int
	// DoubleFaultSamples adds a sampled double-fault campaign: that many
	// slots are re-run with a second drop injected inside the recovery
	// window. Half the samples chase the same line (the dropped message's
	// reissue is also dropped); the other half drop the k-th injectable
	// message after the first drop, k uniform in [1, DoubleFaultWindow].
	DoubleFaultSamples int
	// DoubleFaultWindow bounds the second drop's distance, in injectable
	// messages after the first drop (0 = default 50).
	DoubleFaultWindow int
	// Seed drives the double-fault sampling.
	Seed uint64
	// Progress, when set, is called after each run (double-fault samples
	// included) with running counts, in completion order.
	Progress func(done, total int)
}

// Fault modes a campaign row can carry (TypeRow.Mode).
const (
	// ModeMessageLoss: the row's runs each lose one message (the classic
	// single-loss campaign).
	ModeMessageLoss = "message-loss"
	// ModeTileDeath: the row's runs each kill one tile (L1 + L2 bank +
	// directory slice) at an injection slot; the row is per victim tile.
	ModeTileDeath = "tile-death"
	// ModeLinkDeath: the row's runs each kill one NoC link at an injection
	// slot; the row is per link.
	ModeLinkDeath = "link-death"
)

// TypeRow is one line of the coverage matrix: every slot of one message
// type (message-loss mode) or of one victim tile/link (structural modes),
// with verification results and timeout/latency aggregates.
type TypeRow struct {
	Type string `json:"type"`
	// Mode labels the row's fault mode (message-loss, tile-death,
	// link-death) so mixed campaigns render unambiguously.
	Mode  string `json:"mode"`
	Slots uint64 `json:"slots"`
	// Tested <= Slots when MaxSlotsPerType sampled this type (Sampled set).
	Tested    int  `json:"tested"`
	Sampled   bool `json:"sampled,omitempty"`
	Recovered int  `json:"recovered"`
	// Unfired counts tested slots whose drop never fired — always zero
	// when the run function is deterministic (kept as a sanity check).
	Unfired int `json:"unfired,omitempty"`
	// Timeout firings: number of this type's runs in which each Table 3
	// fault-detection timeout fired at least once.
	LostRequest int `json:"lostRequest"`
	LostUnblock int `json:"lostUnblock"`
	LostAckBD   int `json:"lostAckBD"`
	Backup      int `json:"backup"`
	// Unrecoverable totals, across this row's runs, the lines whose
	// freshest copy died with the tile and were rolled back to the best
	// surviving version (tile-death mode only; such lines are counted and
	// excluded from the image comparison, never silently passed).
	Unrecoverable int `json:"unrecoverable,omitempty"`
	// Recovery latency (max per run, in cycles) across this type's
	// recovered runs that attributed the fault — reconstruction latency in
	// tile-death mode; zero when none did.
	LatencyMin  uint64  `json:"latencyMin"`
	LatencyMean float64 `json:"latencyMean"`
	LatencyMax  uint64  `json:"latencyMax"`
}

// Failure records one slot that did not recover.
type Failure struct {
	Type string `json:"type"`
	Nth  uint64 `json:"nth"`
	// Victim names the dead tile or link for structural-mode failures.
	Victim string `json:"victim,omitempty"`
	Err    string `json:"err"`
}

// DoubleFault reports one sampled double-fault run.
type DoubleFault struct {
	Type string `json:"type"`
	Nth  uint64 `json:"nth"`
	// Mode is "reissue" (second drop chases the same line's reissued
	// message) or "window" (second drop k injectable messages later).
	Mode string `json:"mode"`
	// After is the window offset for mode "window" (0 for "reissue").
	After uint64 `json:"after,omitempty"`
	// SecondFired tells whether the second drop happened; SecondType is
	// the type it hit.
	SecondFired bool   `json:"secondFired"`
	SecondType  string `json:"secondType,omitempty"`
	Recovered   bool   `json:"recovered"`
	Err         string `json:"err,omitempty"`
}

// Report is the aggregated coverage matrix of a campaign.
type Report struct {
	// Protocol/Workload are labels set by the caller.
	Protocol string `json:"protocol"`
	Workload string `json:"workload"`

	// Baseline (fault-free) run.
	BaselineCycles uint64 `json:"baselineCycles"`
	// BaselineMemHash is the fault-free final memory image hash every
	// fault run must reproduce.
	BaselineMemHash uint64 `json:"baselineMemHash"`

	// TotalSlots is the full fault space (every injectable message);
	// SlotsTested <= TotalSlots when sampling was requested.
	TotalSlots  uint64 `json:"totalSlots"`
	SlotsTested int    `json:"slotsTested"`
	Recovered   int    `json:"recovered"`
	Unfired     int    `json:"unfired,omitempty"`

	Rows []TypeRow `json:"rows"`

	// Failures lists the first maxFailures non-recovered slots in slot
	// order; TotalFailures is the uncapped count.
	Failures      []Failure `json:"failures,omitempty"`
	TotalFailures int       `json:"totalFailures"`

	// DoubleFaults lists the sampled double-fault runs (empty unless
	// requested); DoubleFaultRecovered counts the recovered ones.
	DoubleFaults         []DoubleFault `json:"doubleFaults,omitempty"`
	DoubleFaultRecovered int           `json:"doubleFaultRecovered,omitempty"`
}

// maxFailures caps the failure list carried by the report.
const maxFailures = 20

// FullCoverage reports whether the campaign tested the complete fault space
// and every slot recovered.
func (r *Report) FullCoverage() bool {
	return r.TotalSlots > 0 &&
		uint64(r.SlotsTested) == r.TotalSlots &&
		r.Recovered == r.SlotsTested &&
		r.Unfired == 0
}

// RunContext executes a message-loss coverage campaign: one census run,
// one run per enumerated slot, then the sampled double-fault runs, all
// counted against one progress total. It fails only if the baseline run
// fails (a protocol that cannot run fault-free has no coverage to measure)
// or ctx is cancelled — per-slot failures are part of the report, not
// errors. Once ctx is cancelled, double-fault runs included, no further run
// is dispatched, a run that failed after the cancellation counts as
// interrupted rather than unrecovered, and the campaign returns the
// cancellation error instead of a report. The RunFunc is expected to honor
// the same context itself (the repro front door wires ctx into every
// simulation's cancel hook), so in-flight runs abort promptly too.
func RunContext(ctx context.Context, run RunFunc, opt Options) (*Report, error) {
	return runCampaign(ctx, run, opt.Parallelism, opt.MaxSlotsPerType, opt.Progress, func(census *Census, slots []Slot) campaign {
		c := campaign{
			inject: func(t trial) firing {
				// after 0 leaves the window drop disarmed.
				inj := fault.NewNthOfType(t.slot.Type, t.slot.Nth).SecondDropAfter(t.after)
				if t.row < 0 && t.after == 0 {
					inj.AlsoDropReissue()
				}
				return inj
			},
			verdict: func(_ trial, out, base Outcome) string { return VerdictErr(out, base) },
			latency: recoveryLatency,
		}
		var prev msg.Type
		for _, s := range slots {
			if s.Type != prev {
				prev = s.Type
				n := census.Count(s.Type)
				c.rows = append(c.rows, TypeRow{Type: s.Type.String(), Mode: ModeMessageLoss, Slots: n,
					Sampled: opt.MaxSlotsPerType > 0 && n > uint64(opt.MaxSlotsPerType)})
			}
			c.trials = append(c.trials, trial{row: len(c.rows) - 1, slot: s})
		}
		c.trials = append(c.trials, doubleFaultTrials(opt, slots)...)
		return c
	})
}

// doubleFaultTrials samples the slots re-run with a second drop inside the
// recovery window: even samples chase the dropped message's reissue, odd
// ones drop the k-th injectable message after it.
func doubleFaultTrials(opt Options, slots []Slot) []trial {
	window := opt.DoubleFaultWindow
	if window <= 0 {
		window = 50
	}
	rng := sim.NewRNG(opt.Seed*2 + 1)
	trials := make([]trial, max(opt.DoubleFaultSamples, 0))
	for i := range trials {
		trials[i] = trial{row: -1, slot: slots[rng.Intn(len(slots))]}
		// Even samples are the paper's hardest case: the recovery traffic
		// itself is faulty — the reissued message is lost too.
		if i%2 == 1 {
			trials[i].after = 1 + uint64(rng.Intn(window))
		}
	}
	return trials
}

// shortErr keeps the first line of an error string, capped.
func shortErr(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	const maxLen = 160
	if len(s) > maxLen {
		s = s[:maxLen] + "..."
	}
	return s
}

// Table renders the coverage matrix as fixed-width text, one row per
// message type plus a totals line. The output is deterministic.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-12s %7s %7s %7s %8s %8s %8s %7s %7s  %s\n",
		"type", "mode", "slots", "tested", "recov", "lost_req", "lost_unb", "lost_abd", "backup", "unrec", "latency min/mean/max")
	var lr, lu, la, bk, un int
	for _, row := range r.Rows {
		name := row.Type
		if row.Sampled {
			name += "*"
		}
		lat := "-"
		if row.LatencyMean > 0 {
			lat = fmt.Sprintf("%d/%.0f/%d", row.LatencyMin, row.LatencyMean, row.LatencyMax)
		}
		fmt.Fprintf(&b, "%-14s %-12s %7d %7d %7d %8d %8d %8d %7d %7d  %s\n",
			name, row.Mode, row.Slots, row.Tested, row.Recovered,
			row.LostRequest, row.LostUnblock, row.LostAckBD, row.Backup, row.Unrecoverable, lat)
		lr += row.LostRequest
		lu += row.LostUnblock
		la += row.LostAckBD
		bk += row.Backup
		un += row.Unrecoverable
	}
	fmt.Fprintf(&b, "%-14s %-12s %7d %7d %7d %8d %8d %8d %7d %7d\n",
		"total", "", r.TotalSlots, r.SlotsTested, r.Recovered, lr, lu, la, bk, un)
	if r.Unfired > 0 {
		fmt.Fprintf(&b, "WARNING: %d slot(s) never fired their drop\n", r.Unfired)
	}
	for _, row := range r.Rows {
		if row.Sampled {
			fmt.Fprintf(&b, "* sampled: %s tested %d of %d slots\n", row.Type, row.Tested, row.Slots)
		}
	}
	return b.String()
}

// WriteJSON writes the report as indented JSON. The encoding is
// deterministic: struct fields in declaration order.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
