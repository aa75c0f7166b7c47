package coverage

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
)

// trial is one run of a campaign.
type trial struct {
	// row indexes the report row that tallies the trial; -1 marks a
	// double-fault sample, reported in Report.DoubleFaults instead.
	row  int
	slot Slot
	// after places a double-fault sample's second drop: the after-th
	// injectable message after the first drop, or 0 for the first drop's
	// reissue.
	after uint64
}

// firing is a trial's injector: it reports whether its fault struck.
type firing interface {
	fault.Injector
	Fired() bool
}

// campaign is everything that tells one campaign from another: its trials
// and three small functions. The census baseline, the dispatch with its
// cancellation rule and the tally are runCampaign's, shared by the
// message-loss, double-fault, tile-death and link-death phases.
type campaign struct {
	// rows are the report rows in report order, with Type, Mode, Slots
	// and Sampled set; the engine tallies the rest.
	rows   []TypeRow
	trials []trial
	inject func(trial) firing
	// verdict explains why a trial's run did not recover ("" if it did).
	verdict func(t trial, out, base Outcome) string
	// latency is the latency a recovered run adds to its row's
	// min/mean/max, if it has one.
	latency func(t trial, out Outcome) (uint64, bool)
}

// trialResult is what the tally needs of one run.
type trialResult struct {
	out   Outcome
	fired bool
	// second is a message-loss injector, kept for its second drop.
	second *fault.NthOfType
}

// recoveryLatency is the latency of the message-loss and link-death rows:
// the slowest timeout recovery of a run that attributed its fault.
func recoveryLatency(_ trial, out Outcome) (uint64, bool) {
	return out.RecoveryLatencyMax, out.FaultsRecovered > 0
}

// runCampaign runs the fault-free census baseline, lets plan turn its
// slots into a campaign, then runs every trial under internal/runner and
// tallies them in trial order, so the report is byte-identical at every
// parallelism level. See RunContext for the progress and cancellation
// contract.
func runCampaign(ctx context.Context, run RunFunc, parallelism, maxSlotsPerType int, progress func(done, total int),
	plan func(census *Census, slots []Slot) campaign) (*Report, error) {
	census := NewCensus()
	base := run(census)
	if base.Err != "" {
		return nil, fmt.Errorf("coverage: fault-free baseline failed: %s", base.Err)
	}
	if census.Total() == 0 {
		return nil, fmt.Errorf("coverage: baseline run sent no injectable messages")
	}
	c := plan(census, EnumerateSlots(census, maxSlotsPerType))

	results, err := runner.MapProgressContext(ctx, parallelism, len(c.trials), func(ctx context.Context, i int) (trialResult, error) {
		inj := c.inject(c.trials[i])
		out := run(inj)
		if err := context.Cause(ctx); err != nil && out.Err != "" {
			return trialResult{}, err
		}
		r := trialResult{out: out, fired: inj.Fired()}
		r.second, _ = inj.(*fault.NthOfType)
		return r, nil
	}, progress)
	if err != nil {
		// Only a panicking job or cancellation can land here; run errors
		// live in Outcome.
		return nil, err
	}

	rep := &Report{BaselineCycles: base.Cycles, BaselineMemHash: base.MemHash, Rows: c.rows}
	latencySum := make([]struct{ n, sum uint64 }, len(c.rows))
	for i, r := range results {
		t := c.trials[i]
		if t.row < 0 {
			rep.addDoubleFault(t, r, c.verdict(t, r.out, base))
			continue
		}
		row := &rep.Rows[t.row]
		row.Tested++
		if !r.fired {
			row.Unfired++
			continue
		}
		if verdict := c.verdict(t, r.out, base); verdict == "" {
			row.Recovered++
			if l, ok := c.latency(t, r.out); ok {
				a := &latencySum[t.row]
				if a.n == 0 || l < row.LatencyMin {
					row.LatencyMin = l
				}
				row.LatencyMax = max(row.LatencyMax, l)
				a.n++
				a.sum += l
			}
		} else {
			rep.TotalFailures++
			if len(rep.Failures) < maxFailures {
				f := Failure{Type: t.slot.Type.String(), Nth: t.slot.Nth, Err: shortErr(verdict)}
				if row.Mode != ModeMessageLoss {
					f.Victim = row.Type
				}
				rep.Failures = append(rep.Failures, f)
			}
		}
		row.Unrecoverable += r.out.LinesUnrecoverable
		if r.out.Timeouts[obs.TimeoutLostRequest] > 0 {
			row.LostRequest++
		}
		if r.out.Timeouts[obs.TimeoutLostUnblock] > 0 {
			row.LostUnblock++
		}
		if r.out.Timeouts[obs.TimeoutLostAckBD] > 0 {
			row.LostAckBD++
		}
		if r.out.Timeouts[obs.TimeoutBackup] > 0 {
			row.Backup++
		}
	}
	for i := range rep.Rows {
		row := &rep.Rows[i]
		if a := latencySum[i]; a.n > 0 {
			row.LatencyMean = float64(a.sum) / float64(a.n)
		}
		rep.TotalSlots += row.Slots
		rep.SlotsTested += row.Tested
		rep.Recovered += row.Recovered
		rep.Unfired += row.Unfired
	}
	return rep, nil
}

// addDoubleFault records one double-fault sample.
func (rep *Report) addDoubleFault(t trial, r trialResult, verdict string) {
	df := DoubleFault{
		Type:        t.slot.Type.String(),
		Nth:         t.slot.Nth,
		Mode:        "reissue",
		After:       t.after,
		SecondFired: r.second.SecondFired(),
		Recovered:   verdict == "",
		Err:         shortErr(verdict),
	}
	if t.after > 0 {
		df.Mode = "window"
	}
	if df.SecondFired {
		df.SecondType = r.second.SecondHit().String()
	}
	if df.Recovered {
		rep.DoubleFaultRecovered++
	}
	rep.DoubleFaults = append(rep.DoubleFaults, df)
}
