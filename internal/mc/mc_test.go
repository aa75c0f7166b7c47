package mc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/system"
	"repro/internal/workload"
)

// mcConfig is the checker's small configuration: the quick 2x2 mesh with
// tiny caches and a two-op handoff workload — the shape `ftcheck
// -interleave` explores.
func mcConfig(p system.Protocol, ops int) system.Config {
	cfg := system.DefaultConfig()
	cfg.Protocol = p
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	cfg.Mems = 2
	cfg.Params.L1Size = 8 * 1024
	cfg.Params.L2Size = 32 * 1024
	cfg.OpsPerCore = ops
	cfg.Limit = 5_000_000
	return cfg
}

func TestExploreFtDirCMPReorderingsExhaust(t *testing.T) {
	rep, err := Explore(mcConfig(system.FtDirCMP, 2), workload.Handoff(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhausted {
		t.Fatalf("exploration did not exhaust: depthLimited=%d violations=%d", rep.DepthLimited, len(rep.Violations))
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("FtDirCMP violated under pure reordering: %+v", rep.Violations[0])
	}
	if rep.StatesExplored < 2 || rep.TerminalStates < 1 {
		t.Fatalf("implausibly small exploration: %+v", rep)
	}
}

func TestExploreFtDirCMPWithFaultBudgetExhausts(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-budget exploration is the long pole; run without -short")
	}
	rep, err := Explore(mcConfig(system.FtDirCMP, 2), workload.Handoff(), Options{FaultBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhausted {
		t.Fatalf("exploration did not exhaust: depthLimited=%d violations=%d", rep.DepthLimited, len(rep.Violations))
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("FtDirCMP violated with a 1-loss budget: %+v", rep.Violations[0])
	}
	if rep.FaultStates == 0 {
		t.Fatal("fault budget 1 explored no fault-composed states")
	}
}

// TestExploreEveryProtocolExhausts: the gate's shapes on every protocol
// exhaust at fault budget 0 with no violation. The token protocols pass
// because a terminal state is judged as a run ends (System.Finish, token
// scrub included), the way the baseline that sets the memory image was.
func TestExploreEveryProtocolExhausts(t *testing.T) {
	for _, shape := range []string{"handoff", "migratory", "producer"} {
		w, err := workload.ByName(shape)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range resetProtocols {
			rep, err := Explore(mcConfig(p, 2), w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				v := rep.Violations[0]
				t.Errorf("%s/%v: %s at depth %d under pure reordering: %s", shape, p, v.Kind, v.Depth, v.Err)
			} else if !rep.Exhausted {
				t.Errorf("%s/%v: exploration did not exhaust: depthLimited=%d", shape, p, rep.DepthLimited)
			}
		}
	}
}

// TestReplayTokenCMPDefaultOrderClean replays TokenCMP's all-default
// handoff schedule (14 deliveries, no loss). Judged without the token
// scrub it was a false "verdict" counterexample: its memory image lacked
// the scrub's writes, which the baseline's has. The state hash, taken
// before the judgement, is the one that counterexample carried.
func TestReplayTokenCMPDefaultOrderClean(t *testing.T) {
	res, err := Replay(mcConfig(system.TokenCMP, 2), workload.Handoff(), make([]Action, 14))
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "" {
		t.Fatalf("replay reports %q: %s", res.Kind, res.Err)
	}
	if res.StateHash != 0xea7fb855b353bbb8 {
		t.Fatalf("replay state hash %#x, want 0xea7fb855b353bbb8", res.StateHash)
	}
}

func TestExploreDirCMPCounterexample(t *testing.T) {
	cfg := mcConfig(system.DirCMP, 2)
	rep, err := Explore(cfg, workload.Handoff(), Options{FaultBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("DirCMP survived a 1-loss exploration; expected a counterexample")
	}
	v := rep.Violations[0]
	if v.Kind != "deadlock" {
		t.Fatalf("expected a deadlock counterexample, got %q: %s", v.Kind, v.Err)
	}
	if v.Drops != 1 {
		t.Fatalf("counterexample composed %d drops, want 1", v.Drops)
	}
	hasDesc := false
	for _, a := range v.Schedule {
		if a.Desc != "" {
			hasDesc = true
		}
	}
	if !hasDesc {
		t.Fatalf("counterexample schedule has no message descriptions: %+v", v.Schedule)
	}

	// The counterexample must replay deterministically: same violation
	// kind, same error, same state fingerprint — twice.
	r1, err := Replay(cfg, workload.Handoff(), v.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(cfg, workload.Handoff(), v.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kind != v.Kind || r1.StateHash != v.StateHash {
		t.Fatalf("replay diverged from violation: kind %q hash %#x, want %q %#x", r1.Kind, r1.StateHash, v.Kind, v.StateHash)
	}
	if r1.Kind != r2.Kind || r1.Err != r2.Err || r1.StateHash != r2.StateHash || r1.Cycles != r2.Cycles {
		t.Fatalf("two replays disagree: %+v vs %+v", r1, r2)
	}
	if !strings.Contains(r1.Err, "deadlock") {
		t.Fatalf("replay error does not describe the deadlock: %s", r1.Err)
	}
}

// TestStateHashByteIdentical re-executes the same decision prefix twice on
// fresh systems and requires bit-identical state fingerprints — the
// soundness precondition for revisit pruning.
func TestStateHashByteIdentical(t *testing.T) {
	cfg := mcConfig(system.FtDirCMP, 2)
	w := workload.Handoff()
	prefix := []Action{{Choice: 0}, {Choice: 0}}
	hash := func() uint64 {
		in, err := newInstance(cfg, w, coreOps(cfg, w), nil)
		if err != nil {
			t.Fatal(err)
		}
		ch := &scriptChooser{script: prefix}
		in.eng.SetChooser(ch)
		if err := in.eng.Run(cfg.Limit); err != nil {
			t.Fatal(err)
		}
		if ch.diverged != nil {
			t.Fatal(ch.diverged)
		}
		return in.stateHash()
	}
	h1, h2 := hash(), hash()
	if h1 != h2 {
		t.Fatalf("same prefix, different fingerprints: %#x != %#x", h1, h2)
	}
}

// TestStateHashPerturbation deliberately perturbs a quiescent state — one
// extra committed write — and requires the fingerprint to move.
func TestStateHashPerturbation(t *testing.T) {
	cfg := mcConfig(system.FtDirCMP, 2)
	w := workload.Handoff()
	run := func(perturb bool) uint64 {
		in, err := newInstance(cfg, w, coreOps(cfg, w), nil)
		if err != nil {
			t.Fatal(err)
		}
		// No chooser: choice events fire in plain timestamp order.
		if err := in.eng.Run(cfg.Limit); err != nil {
			t.Fatal(err)
		}
		if perturb {
			done := false
			in.sys.Ports()[0].Write(0x40, 0xfee1, func(proto.AccessResult) { done = true })
			if !in.eng.RunUntil(cfg.Limit, func() bool { return done }) {
				t.Fatal("perturbing write did not complete")
			}
			if err := in.eng.Run(cfg.Limit); err != nil {
				t.Fatal(err)
			}
		}
		return in.stateHash()
	}
	if clean, perturbed := run(false), run(true); clean == perturbed {
		t.Fatalf("perturbed state has the unperturbed fingerprint %#x", clean)
	}
}

// TestExploreDeterministicAtAnyParallelism pins the byte-identical-at-any-j
// guarantee: the report must match between serial and parallel runs, on
// DirCMP's counterexample at budget 1 and, field for field, on FtDirCMP's
// exhaustive exploration at budget 2.
func TestExploreDeterministicAtAnyParallelism(t *testing.T) {
	cfg := mcConfig(system.DirCMP, 1)
	r1, err := Explore(cfg, workload.Handoff(), Options{FaultBudget: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Explore(cfg, workload.Handoff(), Options{FaultBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.StatesExplored != r2.StatesExplored || r1.Transitions != r2.Transitions ||
		r1.StatesDeduped != r2.StatesDeduped || r1.InitialStateHash != r2.InitialStateHash ||
		len(r1.Violations) != len(r2.Violations) {
		t.Fatalf("parallelism changed the exploration:\n  -j1: %+v\n  -j0: %+v", r1, r2)
	}
	for i := range r1.Violations {
		v1, v2 := r1.Violations[i], r2.Violations[i]
		if v1.Kind != v2.Kind || v1.Err != v2.Err || v1.StateHash != v2.StateHash || len(v1.Schedule) != len(v2.Schedule) {
			t.Fatalf("violation %d differs across parallelism: %+v vs %+v", i, v1, v2)
		}
	}

	// A job expands one state, its successors forked from one snapshot, so
	// the workers split a layer by parent state: at a real budget, the
	// whole report must not depend on how.
	ft := mcConfig(system.FtDirCMP, 2)
	serial, err := Explore(ft, workload.Handoff(), Options{FaultBudget: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Exhausted || serial.FaultStates == 0 {
		t.Fatalf("FtDirCMP handoff at budget 2 explored nothing worth comparing: %+v", serial)
	}
	for _, j := range []int{2, 4} {
		rep, err := Explore(ft, workload.Handoff(), Options{FaultBudget: 2, Parallelism: j})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, rep) {
			t.Fatalf("FtDirCMP handoff at budget 2: %d workers changed the exploration:\n  -j1: %+v\n  -j%d: %+v", j, serial, j, rep)
		}
	}
}

// TestExploreSharedOpsAtParallelism4: four workers begin every path on the
// one set of operation lists the exploration builds, and must produce
// exactly the serial report, violations and schedules included. Under
// -race (make mc-check) this also checks that no worker writes to the
// shared lists.
func TestExploreSharedOpsAtParallelism4(t *testing.T) {
	for _, c := range []struct {
		p      system.Protocol
		ops    int
		budget int
	}{
		{system.FtDirCMP, 2, 0},
		{system.DirCMP, 1, 1},
	} {
		cfg := mcConfig(c.p, c.ops)
		serial, err := Explore(cfg, workload.Handoff(), Options{FaultBudget: c.budget, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Explore(cfg, workload.Handoff(), Options{FaultBudget: c.budget, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%v: four workers changed the exploration:\n  -j1: %+v\n  -j4: %+v", c.p, serial, parallel)
		}
	}
}
