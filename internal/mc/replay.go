package mc

import (
	"fmt"

	"repro/internal/coverage"
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
// fresh system and reports what it reaches. Execution is deterministic, so
// replaying a counterexample always reproduces its violation and state
// hash. Attach an obs recorder via cfg.Obs to capture the replay's event
// stream for export (fttrace); mc itself leaves it nil.
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
	ch := &scriptChooser{script: schedule}
	in.eng.SetChooser(ch)
	runErr := in.eng.Run(cfg.Limit)
	if ch.diverged != nil {
		return nil, ch.diverged
	}
	if ch.atPoint {
		return nil, fmt.Errorf("mc: schedule ended after %d of its %d actions at a live choice point — not a terminal schedule",
			ch.pos, len(schedule))
	}

	res := &ReplayResult{Cycles: in.eng.Now(), StateHash: in.stateHash(), Schedule: describe(schedule, ch, descs)}
	if runErr != nil {
		res.Kind, res.Err = "cycle-limit", runErr.Error()
		return res, nil
	}
	if ch.pos < len(schedule) {
		return nil, fmt.Errorf("mc: queue drained after %d of %d schedule actions — replay diverged", ch.pos, len(schedule))
	}
	if !in.sys.AllDone() {
		res.Kind, res.Err = "deadlock", in.sys.DeadlockDump().Error()
		return res, nil
	}
	out := coverage.Outcome{Cycles: in.eng.Now()}
	if verr := in.sys.VerifyQuiescent(); verr != nil {
		out.Err = verr.Error()
	} else {
		out.MemHash = in.sys.MemoryImageHash()
	}
	if !coverage.Recovered(out, base) {
		res.Kind, res.Err = "verdict", coverage.VerdictErr(out, base)
	}
	return res, nil
}

// describe copies the schedule with Desc filled from the replay's message
// descriptions: each decision's Info is the chosen message's fingerprint.
func describe(schedule []Action, ch *scriptChooser, descs describer) []Action {
	out := make([]Action, len(schedule))
	copy(out, schedule)
	for i := range out {
		if i < len(ch.infos) {
			out[i].Desc = descs[ch.infos[i]]
		}
	}
	return out
}

// describeSchedule renders a schedule's message descriptions by replaying
// it; the exploration uses it to annotate counterexamples after the fact,
// keeping the exploration's own evaluations allocation-lean.
func describeSchedule(cfg system.Config, w workload.Workload, schedule []Action) ([]Action, *ReplayResult, error) {
	res, err := Replay(cfg, w, schedule)
	if err != nil {
		return nil, nil, err
	}
	return res.Schedule, res, nil
}
