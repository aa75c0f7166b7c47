package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/mc"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/workload"
)

// Interleaving exploration: the public face of the model checker
// (internal/mc). Where Coverage proves recovery from every enumerable
// fault under one fixed delivery order, Interleave explores every
// delivery *order* (optionally composed with a bounded number of losses)
// on a small configuration, pruning revisited states by fingerprint and
// producing a replayable counterexample schedule on any violation. See
// docs/MODELCHECK.md.

// InterleaveReport is the result of one exploration (alias of mc.Report).
type InterleaveReport = mc.Report

// InterleaveAction is one decision of a schedule (alias of mc.Action).
type InterleaveAction = mc.Action

// InterleaveReplayResult is a re-executed schedule's outcome (alias of
// mc.ReplayResult).
type InterleaveReplayResult = mc.ReplayResult

// InterleaveWorkload is the canonical model-checking workload: two cores
// alternating writes to one shared line (see workload.Handoff). Other
// workloads are legal but their state spaces grow fast; the checker is a
// small-model tool.
const InterleaveWorkload = "handoff"

// InterleaveOptions tunes an exploration. The zero value explores pure
// delivery reorderings (no losses) to the default depth and stops at the
// first violation. Its JSON form, without MaxViolations and Progress, is
// the "interleave" params of an ftserve request (docs/SERVICE.md).
type InterleaveOptions struct {
	// MaxDepth bounds decisions per path (0 = mc.DefaultMaxDepth). Paths
	// truncated at the bound are reported, never silently dropped.
	MaxDepth int `json:"max_depth,omitempty"`
	// FaultBudget composes up to this many message losses into each path.
	FaultBudget int `json:"fault_budget,omitempty"`
	// MaxViolations stops the exploration after this many distinct
	// violating states (0 = stop at the first).
	MaxViolations int `json:"-"`
	// Progress, when set, is called once per frontier layer with the
	// states explored so far and the current frontier size.
	Progress func(explored, frontier int) `json:"-"`
}

// Interleave is InterleaveContext without a context.
func Interleave(cfg Config, workloadName string, opt InterleaveOptions) (*InterleaveReport, error) {
	return InterleaveContext(context.Background(), cfg, workloadName, opt)
}

// InterleaveContext exhaustively explores the delivery-order interleavings
// of the named workload on the configured system. Runs execute
// concurrently under cfg.Parallelism; the report is byte-identical at
// every parallelism level. Integrity checking is forced on and the
// configuration's fault injector is ignored — losses are decisions here,
// drawn from the fault budget. Violations are part of the report, not an
// error. Cancelling ctx aborts the exploration between frontier layers
// with an error wrapping ctx's cause.
func InterleaveContext(ctx context.Context, cfg Config, workloadName string, opt InterleaveOptions) (*InterleaveReport, error) {
	w, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	return mc.ExploreContext(ctx, cfg.toInternal(), w, mc.Options{
		MaxDepth:      opt.MaxDepth,
		FaultBudget:   opt.FaultBudget,
		MaxViolations: opt.MaxViolations,
		Parallelism:   cfg.Parallelism,
		Progress:      opt.Progress,
	})
}

// InterleaveReplay re-executes a schedule (typically a violation's) on a
// fresh system. Deterministic: replaying a counterexample reproduces its
// violation kind, error and state hash exactly.
func InterleaveReplay(cfg Config, workloadName string, schedule []InterleaveAction) (*InterleaveReplayResult, error) {
	w, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	return mc.Replay(cfg.toInternal(), w, schedule)
}

// InterleaveDoc is the complete quick interleaving gate: the FtDirCMP
// exploration, the DirCMP contrast on the same configuration (which must
// produce a counterexample), and the counterexample's replay verification.
// ftcheck -interleave emits it as text and JSON; fttrace -replay consumes
// the JSON to export the counterexample as a trace.
type InterleaveDoc struct {
	Config   Config            `json:"config"`
	Workload string            `json:"workload"`
	FtDirCMP *InterleaveReport `json:"ftdircmp"`
	DirCMP   *InterleaveReport `json:"dircmp"`
	// Replay is the DirCMP counterexample re-executed twice; both runs
	// must agree with each other and with the recorded violation. Nil
	// only if DirCMP (unexpectedly) produced no counterexample.
	Replay *InterleaveReplayResult `json:"replay,omitempty"`
}

// InterleaveGate runs the full gate on one configuration: explore FtDirCMP
// (which must exhaust with zero violations), rerun the exploration under
// DirCMP (which must yield a counterexample), and verify the
// counterexample replays deterministically. The returned document holds
// all three results; Err reports the verdict.
func InterleaveGate(ctx context.Context, cfg Config, workloadName string, opt InterleaveOptions) (*InterleaveDoc, error) {
	doc := &InterleaveDoc{Config: cfg, Workload: workloadName}

	ftCfg := cfg
	ftCfg.Protocol = FtDirCMP
	ft, err := InterleaveContext(ctx, ftCfg, workloadName, opt)
	if err != nil {
		return nil, err
	}
	doc.FtDirCMP = ft

	dirCfg := cfg
	dirCfg.Protocol = DirCMP
	dir, err := InterleaveContext(ctx, dirCfg, workloadName, opt)
	if err != nil {
		return nil, err
	}
	doc.DirCMP = dir

	if len(dir.Violations) > 0 {
		v := dir.Violations[0]
		r1, err := InterleaveReplay(dirCfg, workloadName, v.Schedule)
		if err != nil {
			return nil, err
		}
		r2, err := InterleaveReplay(dirCfg, workloadName, v.Schedule)
		if err != nil {
			return nil, err
		}
		if r1.Kind != r2.Kind || r1.Err != r2.Err || r1.StateHash != r2.StateHash || r1.Cycles != r2.Cycles {
			return nil, fmt.Errorf("repro: counterexample replay is nondeterministic: %+v vs %+v", r1, r2)
		}
		doc.Replay = r1
	}
	return doc, nil
}

// Err returns nil when the gate passed: FtDirCMP exhausted its bounded
// state space with zero violations, and DirCMP produced a counterexample
// that replayed to the recorded violation.
func (d *InterleaveDoc) Err() error {
	if !d.FtDirCMP.Exhausted {
		return fmt.Errorf("repro: FtDirCMP exploration did not exhaust (%d paths depth-limited)", d.FtDirCMP.DepthLimited)
	}
	if n := len(d.FtDirCMP.Violations); n > 0 {
		v := d.FtDirCMP.Violations[0]
		return fmt.Errorf("repro: FtDirCMP violated in %d explored state(s): %s: %s", n, v.Kind, v.Err)
	}
	if len(d.DirCMP.Violations) == 0 {
		return fmt.Errorf("repro: DirCMP produced no counterexample — the contrast proves nothing")
	}
	v := d.DirCMP.Violations[0]
	if d.Replay == nil {
		return fmt.Errorf("repro: DirCMP counterexample was not replayed")
	}
	if d.Replay.Kind != v.Kind || d.Replay.StateHash != v.StateHash {
		return fmt.Errorf("repro: counterexample replay diverged: kind %q hash %#x, want %q %#x",
			d.Replay.Kind, d.Replay.StateHash, v.Kind, v.StateHash)
	}
	return nil
}

// Text renders the document as the stable human-readable report ftcheck
// prints (pinned by testdata/interleave.txt).
func (d *InterleaveDoc) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "interleaving exploration: %dx%d mesh, %d mems, workload %s, %d ops/core, fault budget %d\n",
		d.Config.MeshWidth, d.Config.MeshHeight, d.Config.MemControllers,
		d.Workload, d.Config.OpsPerCore, d.FtDirCMP.FaultBudget)
	renderReport(&b, d.FtDirCMP)
	renderReport(&b, d.DirCMP)
	if d.Replay != nil {
		fmt.Fprintf(&b, "\ncounterexample replay: %s reproduced deterministically (state %#x, cycle %d)\n",
			d.Replay.Kind, d.Replay.StateHash, d.Replay.Cycles)
	}
	return b.String()
}

func renderReport(b *strings.Builder, r *InterleaveReport) {
	fmt.Fprintf(b, "\n== %s ==\n", r.Protocol)
	fmt.Fprintf(b, "baseline memory image %#x, initial state %#x\n", r.BaselineMemHash, r.InitialStateHash)
	fmt.Fprintf(b, "states explored %d (%d revisits pruned, %d paths executed), terminal %d, under-fault %d\n",
		r.StatesExplored, r.StatesDeduped, r.Transitions, r.TerminalStates, r.FaultStates)
	fmt.Fprintf(b, "deepest path %d decisions (depth limit %d, %d paths truncated)\n",
		r.DeepestPath, r.MaxDepth, r.DepthLimited)
	switch {
	case len(r.Violations) == 0 && r.Exhausted:
		fmt.Fprintf(b, "state space exhausted: no violation in any explored interleaving\n")
	case len(r.Violations) == 0:
		fmt.Fprintf(b, "no violation found (exploration truncated — NOT a proof)\n")
	default:
		v := r.Violations[0]
		fmt.Fprintf(b, "counterexample (%s) at depth %d with %d injected loss(es), state %#x:\n",
			v.Kind, v.Depth, v.Drops, v.StateHash)
		for i, a := range v.Schedule {
			verb := "deliver"
			if a.Drop {
				verb = "drop   "
			}
			fmt.Fprintf(b, "  %2d. %s %s\n", i+1, verb, a.Desc)
		}
		fmt.Fprintf(b, "  %s\n", firstLine(v.Err))
	}
}

// firstLine truncates multi-line checker errors (deadlock dumps carry a
// per-transaction listing) for the summary rendering.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}

// WriteJSON writes the document as indented JSON (the -json artifact
// fttrace -replay consumes). Deterministic: byte-identical across runs and
// parallelism levels.
func (d *InterleaveDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadInterleaveDoc parses a document written by WriteJSON.
func ReadInterleaveDoc(r io.Reader) (*InterleaveDoc, error) {
	var d InterleaveDoc
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("repro: parse interleave document: %w", err)
	}
	if d.FtDirCMP == nil || d.DirCMP == nil {
		return nil, fmt.Errorf("repro: interleave document missing exploration reports")
	}
	return &d, nil
}

// InterleaveTrace is a counterexample replay with its event log captured
// for export: the violating schedule re-executed with the structured
// recorder attached, ready for Perfetto or JSONL like any Result.
type InterleaveTrace struct {
	Replay *InterleaveReplayResult
	events []obs.Event
	topo   proto.Topology
}

// ReplayCounterexampleTrace re-executes the document's DirCMP
// counterexample with event recording and returns the exportable trace.
func (d *InterleaveDoc) ReplayCounterexampleTrace() (*InterleaveTrace, error) {
	if d.DirCMP == nil || len(d.DirCMP.Violations) == 0 {
		return nil, fmt.Errorf("repro: document holds no counterexample to replay")
	}
	cfg := d.Config
	cfg.Protocol = DirCMP
	w, err := workload.ByName(d.Workload)
	if err != nil {
		return nil, err
	}
	sysCfg := cfg.toInternal()
	rec := obs.NewRecorder(defaultEventBuffer(cfg))
	// Counterexamples are message-ordering stories: record every send and
	// delivery, not just protocol milestones.
	rec.EnableMessageFeed()
	sysCfg.Obs = rec
	res, err := mc.Replay(sysCfg, w, d.DirCMP.Violations[0].Schedule)
	if err != nil {
		return nil, err
	}
	return &InterleaveTrace{Replay: res, events: rec.Events(), topo: cfg.topology()}, nil
}

// Events returns the replay's retained protocol events, oldest first.
func (t *InterleaveTrace) Events() []obs.Event { return t.events }

// WriteEventsJSONL writes the replay's event log as JSON Lines.
func (t *InterleaveTrace) WriteEventsJSONL(w io.Writer) error {
	return obs.WriteJSONL(w, t.events)
}

// WriteChromeTrace writes the replay's event log in the Chrome trace-event
// format, loadable in Perfetto — the counterexample as a timeline.
func (t *InterleaveTrace) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, t.events, t.nodeName)
}

func (t *InterleaveTrace) nodeName(id msg.NodeID) string {
	switch {
	case t.topo.IsL1(id):
		return fmt.Sprintf("L1.%d", t.topo.TileOf(id))
	case t.topo.IsL2(id):
		return fmt.Sprintf("L2.%d", t.topo.TileOf(id))
	case t.topo.IsMem(id):
		return fmt.Sprintf("Mem.%d", int(id)-2*t.topo.Tiles-1)
	}
	return fmt.Sprintf("node.%d", int(id))
}

// defaultEventBuffer sizes the replay recorder's retained-event ring.
func defaultEventBuffer(cfg Config) int {
	if cfg.EventBufferSize > 0 {
		return cfg.EventBufferSize
	}
	return 65536
}
