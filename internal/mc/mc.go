// Package mc is an explicit-state model checker for the coherence
// protocols, layered on the deterministic simulation engine.
//
// The coverage harness (internal/coverage) proves recovery from every
// enumerable fault under the simulator's one fixed delivery order; mc
// explores the *other* delivery orders. It drives the engine through the
// choice-point hook (sim.Chooser + noc.Config.ChoiceDelivery): whenever
// one or more messages sit at their ejection ports, the next delivery —
// and, within a fault budget, whether it is delivered at all or lost —
// becomes a decision, and the checker enumerates every reachable decision
// sequence on a small configuration. Choices are restricted to the head
// message of each (source, destination, class) channel, preserving the
// point-to-point ordering guarantee the protocols assume.
//
// States are explored breadth-first, one job per explored state: the job
// replays the state's decision prefix once and forks its successors from
// a snapshot. Each worker keeps one system. A job returns it to the
// initial state by System.Reset, which restores exactly what system.New
// built, so a path pays for no construction, and replays the prefix —
// every run is deterministic, so a prefix always reaches the same state.
// At the state's choice point it takes System.Snapshot, then evaluates the
// successor decisions in order, calling System.Restore before each one
// after the first. Restore copies the whole system state back into the
// system that took the snapshot, in place, so the engine's queued events,
// whose handlers and arguments point into that system, copy by value. The
// frontier keeps a prefix tree of decisions (each node a parent state and
// one decision) from which a job materialises its state's prefix, so no
// path carries a schedule of its own. Revisited states are pruned via a
// canonical fingerprint: System.StateFingerprint (every agent's interned
// per-line protocol state + core progress + the memory image, from one
// walk of each agent's lines) combined with the in-flight message
// multiset, which the network keeps as it goes (noc.Network.InFlight: the
// sum and count of msg.Fingerprint over the messages in flight, each
// fingerprint computed once, at Send, and offered as the delivery
// choice's Info). The remaining fault budget is part of the state
// identity — a state reached with budget left has successors one with no
// budget lacks.
//
// A terminal state (event queue drained) is hashed, then judged the way
// every run ends (System.Finish: a deadlock dump, or the drain and token
// scrub in default delivery order and the quiescence, coherence and
// integrity checks), and must converge to the fault-free baseline's
// memory image (coverage.Recovered, the coverage campaigns' verdict),
// which is interleaving-invariant because it is built from per-line
// committed-write *counts*, not values. The offending decision sequence
// is the counterexample: replaying it (Replay, through the same
// evaluation) deterministically reproduces the violation, and with an
// event recorder attached the replay exports through internal/obs and
// fttrace like any other run.
package mc

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/coverage"
	"repro/internal/msg"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// Defaults for Options zero values.
const (
	// DefaultMaxDepth bounds the decision-sequence length per path.
	DefaultMaxDepth = 256
	// DefaultMaxViolations stops the exploration after the first
	// counterexample.
	DefaultMaxViolations = 1
)

// Options tune an exploration.
type Options struct {
	// MaxDepth bounds the number of decisions per path (0 =
	// DefaultMaxDepth). Paths truncated at the bound are counted in
	// Report.DepthLimited — a non-zero count means the state space was NOT
	// exhausted.
	MaxDepth int
	// FaultBudget is the maximum number of message losses composed into
	// one path (0 = delivery reordering only).
	FaultBudget int
	// MaxViolations stops the exploration once this many distinct
	// violating states were found (0 = DefaultMaxViolations).
	MaxViolations int
	// Parallelism is the worker count for frontier fan-out (0 = all
	// cores). The result is byte-identical at any value.
	Parallelism int
	// Progress, when non-nil, is called once per frontier layer with the
	// states explored so far and the size of the next frontier.
	Progress func(explored, frontier int)
}

// Action is one decision of a schedule: deliver (or, with Drop, lose) the
// Choice-th eligible channel-head message at one choice point. Desc names
// the affected message on schedules attached to violations.
type Action struct {
	Choice int    `json:"choice"`
	Drop   bool   `json:"drop,omitempty"`
	Desc   string `json:"desc,omitempty"`
}

// Violation is one counterexample: a decision sequence reaching a state
// that fails the checker.
type Violation struct {
	// Kind is "deadlock" (queue drained with blocked cores), "verdict"
	// (terminal state failed the recovery verdict: token scrub,
	// quiescence, coherence, integrity or memory-image match), or
	// "cycle-limit".
	Kind string `json:"kind"`
	// Err is the failing checker's message.
	Err string `json:"err"`
	// Depth and Drops describe the schedule: its length and how many of
	// its actions were injected losses.
	Depth int `json:"depth"`
	Drops int `json:"drops"`
	// StateHash fingerprints the violating state; a replay must reproduce
	// it exactly.
	StateHash uint64 `json:"stateHash"`
	// Schedule is the decision sequence from the initial state.
	Schedule []Action `json:"schedule"`
}

// Report is the result of one exploration.
type Report struct {
	Protocol   string `json:"protocol"`
	Workload   string `json:"workload"`
	OpsPerCore int    `json:"opsPerCore"`

	MaxDepth    int `json:"maxDepth"`
	FaultBudget int `json:"faultBudget"`

	// StatesExplored counts distinct states (fingerprint × remaining
	// fault budget); StatesDeduped counts evaluated paths pruned because
	// they reached an already-explored state; Transitions counts every
	// evaluated path (root + generated successors).
	StatesExplored int `json:"statesExplored"`
	StatesDeduped  int `json:"statesDeduped"`
	Transitions    int `json:"transitions"`
	// TerminalStates counts distinct drained-queue states (including
	// violating ones); FaultStates counts distinct states reached with at
	// least one composed loss.
	TerminalStates int `json:"terminalStates"`
	FaultStates    int `json:"faultStates"`
	// DeepestPath is the longest decision sequence that reached a new
	// state. DepthLimited counts paths truncated at MaxDepth; any non-zero
	// value means the space was not exhausted.
	DeepestPath  int `json:"deepestPath"`
	DepthLimited int `json:"depthLimited"`

	// BaselineMemHash is the fault-free baseline's final memory image —
	// the verdict oracle for every terminal state.
	BaselineMemHash uint64 `json:"baselineMemHash"`
	// InitialStateHash fingerprints the root state (before any decision).
	InitialStateHash uint64 `json:"initialStateHash"`

	Violations []Violation `json:"violations,omitempty"`
	// Exhausted reports a complete exploration: the frontier drained with
	// no path truncated by MaxDepth and no early stop at MaxViolations.
	Exhausted bool `json:"exhausted"`
}

// describer is the network recorder Replay attaches to render
// counterexample schedules: it keeps one rendering of every message sent,
// keyed by the message's fingerprint — the Info of the choice that
// delivers or loses it.
type describer map[uint64]string

func (d describer) MessageSent(m *msg.Message, _ int) {
	fp := msg.Fingerprint(m)
	if _, ok := d[fp]; !ok {
		d[fp] = m.String()
	}
}

func (describer) MessageDropped(*msg.Message)           {}
func (describer) MessageDelivered(*msg.Message, uint64) {}

// instance is one system set up for (re-)execution, with its decision
// script and the operation lists it begins on.
type instance struct {
	sys  *system.System
	eng  *sim.Engine
	net  *noc.Network
	ch   scriptChooser
	name string
	ops  [][]workload.Op // read-only, shared by every instance of one exploration

	// The explorer's per-worker buffers: prefix is the schedule a job
	// replays, step the one decision of a successor, and steps the arenas
	// the results of the frontier layers keep their successor decisions
	// in, by layer parity. The jobs of the next layer read a layer's
	// decisions, so an arena is emptied when the instance first serves the
	// layer after that.
	prefix []Action
	step   [1]Action
	steps  [2][]step
	layer  int
}

// coreOps builds every core's operation list for cfg, as Begin would.
// An exploration builds them once and starts every path on them.
func coreOps(cfg system.Config, w workload.Workload) [][]workload.Op {
	return workload.PerCore(w, cfg.Tiles(), cfg.OpsPerCore, cfg.Seed)
}

// newInstance builds a system for checker-driven execution and begins the
// workload on it from ops (coreOps): choice-point delivery on, which also
// makes the network keep the in-flight message multiset, and integrity
// oracle on. With descs non-nil a describer records every message sent
// into it. cfg.Obs may carry a recorder (replay export); exploration
// leaves it and descs nil, so its network events reach only the
// statistics.
func newInstance(cfg system.Config, w workload.Workload, ops [][]workload.Op, descs describer) (*instance, error) {
	cfg.Net.ChoiceDelivery = true
	cfg.CheckIntegrity = true
	cfg.Injector = nil // losses are decisions here, not random events
	cfg.ExtraRecorder = nil
	if descs != nil { // a nil describer would still be a non-nil recorder
		cfg.ExtraRecorder = descs
	}
	sys, err := system.New(cfg)
	if err != nil {
		return nil, err
	}
	in := &instance{sys: sys, eng: sys.Engine(), net: sys.Network(), name: w.Name(), ops: ops}
	sys.BeginOps(in.name, ops)
	return in, nil
}

// restart resets a used instance to the initial state and begins the
// workload again on the same lists, exactly as newInstance left a fresh
// one.
func (in *instance) restart() error {
	if err := in.sys.Reset(nil); err != nil {
		return err
	}
	in.sys.BeginOps(in.name, in.ops)
	return nil
}

// stateHash combines the system fingerprint with the in-flight multiset
// the network keeps.
func (in *instance) stateHash() uint64 {
	sum, count := in.net.InFlight()
	h := in.sys.StateFingerprint()
	h = h*0x100000001b3 ^ sum
	h = h*0x100000001b3 ^ uint64(count)
	return h
}

// scriptChooser replays a fixed decision prefix, then captures the next
// choice point and halts. It is the checker's re-execution vehicle (a
// state's prefix + capture, or one successor decision from a restored
// choice point + capture) and the counterexample replayer (full
// schedule).
type scriptChooser struct {
	script   []Action
	pos      int
	infos    []uint64 // Info (message fingerprint) of each decision taken
	captured []sim.Choice
	atPoint  bool
	diverged error
}

func (c *scriptChooser) Choose(now uint64, choices []sim.Choice) sim.Decision {
	if c.pos >= len(c.script) {
		c.captured = append(c.captured[:0], choices...)
		c.atPoint = true
		return sim.Decision{Halt: true}
	}
	a := c.script[c.pos]
	if a.Choice < 0 || a.Choice >= len(choices) {
		c.diverged = fmt.Errorf("mc: schedule step %d chooses %d of %d choices — replay diverged",
			c.pos, a.Choice, len(choices))
		return sim.Decision{Halt: true}
	}
	if a.Drop && !choices[a.Choice].CanDrop {
		c.diverged = fmt.Errorf("mc: schedule step %d drops an undroppable choice — replay diverged", c.pos)
		return sim.Decision{Halt: true}
	}
	c.infos = append(c.infos, choices[a.Choice].Info)
	c.pos++
	return sim.Decision{Index: a.Choice, Drop: a.Drop}
}

// evalResult is the outcome of executing one decision prefix.
type evalResult struct {
	terminal  bool
	hash      uint64 // state fingerprint (at the choice point or terminal)
	choices   []sim.Choice
	violation *Violation // schedule/desc filled in by the aggregator
	cycles    uint64
}

// outcome is what an exploration keeps of one evaluated successor for its
// serial pass: the evaluation, with the successor decisions of the choice
// point it reached, under the fault budget, in place of its choices.
type outcome struct {
	hash      uint64
	steps     []step
	violation *Violation
	terminal  bool
}

// evaluate takes the decisions in actions from the instance's current
// state — its initial state, or a choice point it halted at — and reports
// what it reached: the next choice point (with the eligible choices, valid
// until the instance's next evaluation), a clean terminal state, or a
// violation.
func evaluate(in *instance, cfg system.Config, base coverage.Outcome, actions []Action) (evalResult, error) {
	ch := &in.ch // reused across paths, with its buffers
	*ch = scriptChooser{script: actions, infos: ch.infos[:0], captured: ch.captured[:0]}
	in.eng.SetChooser(ch)
	in.eng.Resume()
	runErr := in.eng.Run(cfg.Limit)
	if ch.diverged != nil {
		return evalResult{}, ch.diverged
	}
	res := evalResult{cycles: in.eng.Now()}
	if runErr != nil {
		// Cycle limit with events still pending: a livelock under this
		// schedule (or a config limit far too small). Either way the
		// exploration must not silently truncate — surface it.
		res.hash = in.stateHash()
		res.violation = &Violation{Kind: "cycle-limit", Err: runErr.Error(), StateHash: res.hash}
		return res, nil
	}
	if ch.atPoint {
		// Halted at the first choice point past the prefix.
		res.hash = in.stateHash()
		res.choices = ch.captured
		return res, nil
	}
	if ch.pos < len(actions) {
		return evalResult{}, fmt.Errorf("mc: queue drained after %d of %d schedule actions — replay diverged", ch.pos, len(actions))
	}
	// Queue drained: terminal state. Hash it before the judgement, whose
	// drain and scrub move the state on.
	res.terminal = true
	res.hash = in.stateHash()
	if kind, reason := judge(in.sys, base); kind != "" {
		res.violation = &Violation{Kind: kind, Err: reason, StateHash: res.hash}
	}
	return res, nil
}

// judge is the verdict on a terminal state: System.Finish, then the
// recovery verdict against the baseline (coverage.Recovered). It returns
// the violation kind and its reason, or "" for a clean state.
func judge(sys *system.System, base coverage.Outcome) (kind, reason string) {
	var out coverage.Outcome
	switch err := sys.Finish(); {
	case errors.Is(err, system.ErrDeadlock):
		return "deadlock", err.Error()
	case err != nil:
		out.Err = err.Error()
	default:
		out.MemHash = sys.MemoryImageHash()
	}
	if !coverage.Recovered(out, base) {
		return "verdict", coverage.VerdictErr(out, base)
	}
	return "", ""
}

// baseline runs the configuration once conventionally (no chooser, no
// faults) and returns the verdict oracle: its final memory image hash.
func baseline(cfg system.Config, w workload.Workload) (coverage.Outcome, error) {
	cfg.CheckIntegrity = true
	cfg.Injector = nil
	// The baseline is an oracle, not an observed run: detach any recorder
	// the caller wired for replay export so it only sees the replay.
	cfg.Obs = nil
	sys, err := system.New(cfg)
	if err != nil {
		return coverage.Outcome{}, err
	}
	run, err := sys.Run(w)
	if err != nil {
		return coverage.Outcome{}, fmt.Errorf("mc: baseline run failed: %w", err)
	}
	return coverage.Outcome{Cycles: run.Cycles, MemHash: sys.MemoryImageHash()}, nil
}

// Explore enumerates every reachable delivery-order interleaving (composed
// with up to Options.FaultBudget injected losses) of the workload on the
// given configuration. See ExploreContext.
func Explore(cfg system.Config, w workload.Workload, opt Options) (*Report, error) {
	return ExploreContext(context.Background(), cfg, w, opt)
}

// pathNode is one explored state in the prefix tree of decisions the
// exploration grows: the decision that reached it from its parent state
// (nil for the initial state), its depth (the length of its decision
// prefix) and the losses that prefix composes. A state's schedule is
// materialised by walking up the tree (schedule), so the frontier holds no
// per-path copy of it.
type pathNode struct {
	parent *pathNode
	step   step
	depth  int32
	drops  int32
}

// step is one decision in compact form: the choice index and whether the
// message is lost.
type step struct {
	choice int32
	drop   bool
}

func (s step) action() Action { return Action{Choice: int(s.choice), Drop: s.drop} }

// schedule materialises the node's decision prefix into buf, grown if
// needed, and returns it.
func (n *pathNode) schedule(buf []Action) []Action {
	buf = slices.Grow(buf[:0], int(n.depth))[:n.depth]
	for p := n; p.parent != nil; p = p.parent {
		buf[p.depth-1] = p.step.action()
	}
	return buf
}

// child is the node a decision leads to from n.
func (n *pathNode) child(s step) pathNode {
	c := pathNode{parent: n, step: s, depth: n.depth + 1, drops: n.drops}
	if s.drop {
		c.drops++
	}
	return c
}

// successors appends every decision that leaves a state with these
// choices, reached with drops losses, under the fault budget: each choice
// in order, delivered and then, where it can be lost and budget is left,
// dropped.
func successors(dst []step, choices []sim.Choice, drops int32, budget int) []step {
	for ci, c := range choices {
		dst = append(dst, step{choice: int32(ci)})
		if c.CanDrop && int(drops) < budget {
			dst = append(dst, step{choice: int32(ci), drop: true})
		}
	}
	return dst
}

// expansion is one job of a frontier layer: an explored state and its
// successor decisions, whose results the layer keeps from index first on.
// The root job (node nil) evaluates the initial state itself, as its one
// result.
type expansion struct {
	node  *pathNode
	steps []step
	first int
}

// results is how many results the job produces.
func (x *expansion) results() int {
	if x.node == nil {
		return 1
	}
	return len(x.steps)
}

// expand runs one job on an instance in its initial state: it replays the
// state's decision prefix once, snapshots the system at the state's choice
// point, and takes each successor decision from there, restoring the
// snapshot before every one after the first. Each outcome goes to out.
func expand(in *instance, cfg system.Config, base coverage.Outcome, x *expansion, budget int, out []outcome) error {
	if x.node == nil {
		r, err := evaluate(in, cfg, base, nil)
		out[0] = in.keep(r, 0, budget)
		return err
	}
	in.prefix = x.node.schedule(in.prefix)
	if _, err := evaluate(in, cfg, base, in.prefix); err != nil {
		return err
	}
	if !in.ch.atPoint {
		return fmt.Errorf("mc: replaying %d decisions reached no choice point — replay diverged", len(in.prefix))
	}
	if err := in.sys.Snapshot(); err != nil {
		return err
	}
	for k, s := range x.steps {
		if k > 0 {
			if err := in.sys.Restore(); err != nil {
				return err
			}
		}
		in.step[0] = s.action()
		r, err := evaluate(in, cfg, base, in.step[:])
		if err != nil {
			return err
		}
		drops := x.node.drops
		if s.drop {
			drops++
		}
		out[k] = in.keep(r, drops, budget)
	}
	return nil
}

// keep returns the outcome of r, reached with drops losses, its successor
// decisions in the instance's arena for the layer.
func (in *instance) keep(r evalResult, drops int32, budget int) outcome {
	o := outcome{hash: r.hash, violation: r.violation, terminal: r.terminal}
	if r.choices != nil {
		a := &in.steps[in.layer%2]
		n := len(*a)
		*a = successors(*a, r.choices, drops, budget)
		o.steps = (*a)[n:len(*a):len(*a)]
	}
	return o
}

// nodeArena hands out prefix-tree nodes from chunks that never move, so a
// node's address stays valid for the whole exploration; chunks double from
// 64 nodes up to 4,096.
type nodeArena struct {
	chunk []pathNode
}

func (a *nodeArena) put(n pathNode) *pathNode {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]pathNode, 0, min(max(2*cap(a.chunk), 64), 4096))
	}
	a.chunk = append(a.chunk, n)
	return &a.chunk[len(a.chunk)-1]
}

// ExploreContext is Explore under a context: cancelling ctx aborts the
// exploration between frontier layers with ctx's error.
func ExploreContext(ctx context.Context, cfg system.Config, w workload.Workload, opt Options) (*Report, error) {
	maxDepth := opt.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	maxViolations := opt.MaxViolations
	if maxViolations == 0 {
		maxViolations = DefaultMaxViolations
	}

	base, err := baseline(cfg, w)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Protocol:        cfg.Protocol.String(),
		Workload:        w.Name(),
		OpsPerCore:      cfg.OpsPerCore,
		MaxDepth:        maxDepth,
		FaultBudget:     opt.FaultBudget,
		BaselineMemHash: base.MemHash,
	}

	// Breadth-first frontier over explored states: each layer's jobs run
	// in parallel, one job per state to expand, each writing the results
	// of its successors to its own range of the layer's results. A serial
	// pass then walks the results in job order, successor by successor,
	// dedups them against the seen-state set and builds the next layer —
	// so the result is byte-identical at any parallelism.
	//
	// Each worker takes an instance from the free list, restarts it, runs
	// one job and puts it back: the list holds at most one instance per
	// worker, built on first use. It is a buffered channel rather than a
	// sync.Pool, which the GC may empty, so how many systems an
	// exploration builds does not depend on GC timing. The exploration's
	// instances carry no event recorder, which a snapshot cannot roll
	// back; Replay renders the counterexamples on the caller's cfg.
	//
	// Every core's operation list is built once here and shared, read
	// only, by every worker's instance.
	ops := coreOps(cfg, w)
	explore := cfg
	explore.Obs = nil
	free := make(chan *instance, runner.Parallelism(opt.Parallelism))
	job := func(x *expansion, out []outcome, layer int) error {
		var in *instance
		select {
		case in = <-free:
			if err := in.restart(); err != nil {
				return err
			}
		default:
			var err error
			if in, err = newInstance(explore, w, ops, nil); err != nil {
				return err
			}
		}
		if in.layer != layer {
			in.layer = layer
			in.steps[layer%2] = in.steps[layer%2][:0]
		}
		err := expand(in, explore, base, x, opt.FaultBudget, out)
		free <- in
		return err
	}

	// The layer's jobs and results, and the next layer's jobs, swapped
	// each layer so their storage is reused.
	var (
		nodes          nodeArena
		jobs, nextJobs = []expansion{{}}, []expansion(nil)
		results        []outcome
		total          = 1 // results of the layer's jobs
		seen           = make(map[uint64]bool)
		stopped        bool
	)
	for layer := 0; len(jobs) > 0 && !stopped; layer++ {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		results = slices.Grow(results[:0], total)[:total]
		if _, err := runner.MapContext(ctx, opt.Parallelism, len(jobs), func(ctx context.Context, i int) (struct{}, error) {
			x := &jobs[i]
			return struct{}{}, job(x, results[x.first:x.first+x.results()], layer)
		}); err != nil {
			return nil, err
		}
		// A layer reaches at most one new state per result.
		nextJobs, total = slices.Grow(nextJobs[:0], len(results)), 0
	walk:
		for i := range jobs {
			x := &jobs[i]
			for k := range x.results() {
				r := &results[x.first+k]
				var node pathNode // the initial state, for the root job
				if x.node != nil {
					node = x.node.child(x.steps[k])
				}
				rep.Transitions++
				// The remaining fault budget is part of the state identity:
				// the same protocol state with budget left has successors
				// the exhausted-budget copy lacks.
				key := r.hash*0x100000001b3 ^ uint64(node.drops)
				if seen[key] {
					rep.StatesDeduped++
					continue
				}
				seen[key] = true
				rep.StatesExplored++
				depth := int(node.depth)
				if depth == 0 {
					rep.InitialStateHash = r.hash
				}
				rep.DeepestPath = max(rep.DeepestPath, depth)
				if node.drops > 0 {
					rep.FaultStates++
				}
				if r.violation != nil {
					v := *r.violation
					v.Depth, v.Drops = depth, int(node.drops)
					v.Schedule = node.schedule(nil)
					if r.terminal {
						rep.TerminalStates++
					}
					rep.Violations = append(rep.Violations, v)
					if len(rep.Violations) >= maxViolations {
						stopped = true
						break walk
					}
					continue
				}
				if r.terminal {
					rep.TerminalStates++
					continue
				}
				if depth >= maxDepth {
					rep.DepthLimited++
					continue
				}
				nextJobs = append(nextJobs, expansion{node: nodes.put(node), steps: r.steps, first: total})
				total += len(r.steps)
			}
		}
		jobs, nextJobs = nextJobs, jobs
		if opt.Progress != nil {
			opt.Progress(rep.StatesExplored, total)
		}
	}
	rep.Exhausted = !stopped && rep.DepthLimited == 0

	// Render the counterexample schedules: one replay per violation fills
	// in the human-readable message descriptions, after the fact, so the
	// exploration's own evaluations stay allocation-lean.
	for i := range rep.Violations {
		res, err := Replay(cfg, w, rep.Violations[i].Schedule)
		if err != nil {
			return nil, err
		}
		rep.Violations[i].Schedule = res.Schedule
	}
	return rep, nil
}
