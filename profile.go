package repro

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/span"
)

// ProfileReport is the output of ProfileContext: per-miss-class latency attribution
// under both protocols, the per-miss fault-tolerance overhead, and (when the
// configuration injects faults) the under-fault penalty. All three runs
// carry full span data (Result.Spans, Result.Breakdown).
type ProfileReport struct {
	Workload string

	// Dir and Ft are the fault-free DirCMP and FtDirCMP runs.
	Dir, Ft *Result
	// Faulty is the FtDirCMP run at the configuration's fault rate; nil
	// when the configuration injects no faults.
	Faulty *Result

	// Overhead compares fault-free FtDirCMP against DirCMP per miss class:
	// the cycles fault tolerance costs each miss, split by phase (the
	// paper's §5.1 claim is that this is negligible).
	Overhead []span.ClassDelta
	// FaultPenalty compares the faulty FtDirCMP run against the fault-free
	// one; nil without faults.
	FaultPenalty []span.ClassDelta
}

// ProfileContext runs the latency-attribution comparison on a workload:
// DirCMP and FtDirCMP fault-free, plus FtDirCMP under the configured fault
// rate when cfg.FaultRatePerMillion > 0, all with span recording on. The
// runs execute concurrently under cfg.Parallelism; the report is identical
// at every parallelism level. Cancellation aborts the runs and the error
// wraps ctx's cause.
func ProfileContext(ctx context.Context, cfg Config, workloadName string) (*ProfileReport, error) {
	configs := []Config{cfg, cfg}
	configs[0].Protocol = DirCMP
	configs[1].Protocol = FtDirCMP
	for i := range configs {
		configs[i].FaultRatePerMillion = 0
		configs[i].RecordSpans = true
	}
	if cfg.FaultRatePerMillion > 0 {
		faulty := cfg
		faulty.Protocol = FtDirCMP
		faulty.RecordSpans = true
		configs = append(configs, faulty)
	}
	results, err := runner.MapContext(ctx, cfg.Parallelism, len(configs), func(ctx context.Context, i int) (*Result, error) {
		res, err := RunContext(ctx, configs[i], workloadName)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", configs[i].Protocol, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &ProfileReport{
		Workload: workloadName,
		Dir:      results[0],
		Ft:       results[1],
		Overhead: results[1].Breakdown().DeltaVs(results[0].Breakdown()),
	}
	if len(results) > 2 {
		rep.Faulty = results[2]
		rep.Faulty.FaultRatePerMillion = cfg.FaultRatePerMillion
		rep.FaultPenalty = rep.Faulty.Breakdown().DeltaVs(rep.Ft.Breakdown())
	}
	return rep, nil
}

// Report renders the profile as a human-readable table: one row per miss
// class with the per-phase mean deltas. Deterministic for a deterministic
// configuration (golden-tested via ftexp).
func (p *ProfileReport) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency attribution: %s\n", p.Workload)
	fmt.Fprintf(&b, "  fault-free per-miss overhead (FtDirCMP vs DirCMP):\n")
	writeDeltaTable(&b, p.Overhead)
	if p.Faulty != nil {
		fmt.Fprintf(&b, "  under-fault penalty (FtDirCMP @%d/M vs fault-free):\n",
			p.Faulty.FaultRatePerMillion)
		writeDeltaTable(&b, p.FaultPenalty)
	}
	return b.String()
}

// writeDeltaTable renders one delta set: class, span counts, means, total
// delta, and the per-phase split in taxonomy order.
func writeDeltaTable(b *strings.Builder, deltas []span.ClassDelta) {
	phases := span.AllPhases()
	widths := make([]int, len(phases))
	fmt.Fprintf(b, "    %-10s %7s %7s %9s %9s %8s", "class", "base_n", "n", "base", "mean", "delta")
	for i, ph := range phases {
		widths[i] = len("d_" + ph)
		if widths[i] < 9 {
			widths[i] = 9
		}
		fmt.Fprintf(b, " %*s", widths[i], "d_"+ph)
	}
	b.WriteByte('\n')
	for _, d := range deltas {
		fmt.Fprintf(b, "    %-10s %7d %7d %9.1f %9.1f %+8.1f",
			d.Class, d.BaseCount, d.Count, d.BaseMean, d.Mean, d.Delta)
		for i, ph := range phases {
			fmt.Fprintf(b, " %+*.1f", widths[i], d.PhaseDelta[ph])
		}
		b.WriteByte('\n')
	}
}
