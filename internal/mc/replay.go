package mc

import (
	"fmt"

	"repro/internal/system"
	"repro/internal/workload"
)

// ReplayResult is the outcome of re-executing one schedule.
type ReplayResult struct {
	// Kind/Err mirror Violation: "" / "" for a clean terminal state,
	// "deadlock", "verdict" or "cycle-limit" otherwise.
	Kind string `json:"kind,omitempty"`
	Err  string `json:"err,omitempty"`
	// StateHash fingerprints the final state; deterministic replay means
	// it matches the violation's StateHash byte for byte.
	StateHash uint64 `json:"stateHash"`
	Cycles    uint64 `json:"cycles"`
	// Schedule is the input schedule with Desc filled in for every action.
	Schedule []Action `json:"schedule"`
}

// Replay re-executes a complete schedule (typically a Violation's) on a
// fresh system, through the explorer's own evaluation and judgement, and
// reports what it reaches. Execution is deterministic, so replaying a
// counterexample always reproduces its violation and state hash. Attach
// an obs recorder via cfg.Obs to capture the replay's event stream for
// export (fttrace); mc itself leaves it nil.
//
// The schedule must run to a terminal state: a schedule that ends at a
// choice point (a strict prefix) is an error, as is one that diverges from
// the states it was recorded on.
func Replay(cfg system.Config, w workload.Workload, schedule []Action) (*ReplayResult, error) {
	base, err := baseline(cfg, w)
	if err != nil {
		return nil, err
	}
	descs := make(describer)
	in, err := newInstance(cfg, w, coreOps(cfg, w), descs)
	if err != nil {
		return nil, err
	}
	r, err := evaluate(in, cfg, base, schedule)
	if err != nil {
		return nil, err
	}
	if !r.terminal && r.violation == nil {
		return nil, fmt.Errorf("mc: schedule ended after %d of its %d actions at a live choice point — not a terminal schedule",
			in.ch.pos, len(schedule))
	}
	// Each decision's Info is the chosen message's fingerprint, which
	// names its rendering in descs.
	res := &ReplayResult{StateHash: r.hash, Cycles: r.cycles, Schedule: make([]Action, len(schedule))}
	copy(res.Schedule, schedule)
	for i, info := range in.ch.infos {
		res.Schedule[i].Desc = descs[info]
	}
	if v := r.violation; v != nil {
		res.Kind, res.Err = v.Kind, v.Err
	}
	return res, nil
}
