// Command ftcheck runs the fault-injection correctness campaign of the
// paper's §4: it verifies that FtDirCMP completes every workload correctly
// while messages are being lost, and that DirCMP does not.
//
// Three phases:
//
//  1. Targeted drops: for every message type and several occurrence
//     positions, drop exactly that message and check the run completes with
//     all coherence and data-integrity invariants intact.
//  2. Random campaigns: uniform and bursty loss at several rates and seeds.
//  3. Baseline sanity: DirCMP must deadlock (or never finish) when a
//     message is lost — demonstrating why the protocol is needed.
//
// -tile-death switches to the structural-fault campaign instead: every tile
// (and every mesh link) is killed permanently at every enumerated injection
// slot, and each run must satisfy the extended recovery verdict — quiescent
// termination, coherence on the survivors, and a final memory image matching
// the fault-free baseline on every line except those the reconstruction
// explicitly reported unrecoverable (counted, never silent) and those only
// the dead tile's own stream wrote. The DirCMP baseline is shown failing the
// same campaign.
//
// -interleave switches to the model-checking gate instead: on a tiny
// configuration and a two-core handoff workload, every message delivery
// interleaving (composed with up to -budget losses) is explored
// exhaustively, pruning revisited states by fingerprint. FtDirCMP must
// exhaust its bounded state space with zero violations; DirCMP must yield a
// concrete counterexample schedule, which is replayed twice to prove it
// reproduces deterministically. See docs/MODELCHECK.md.
//
// The runs are independent, deterministic simulations, so the campaign
// fans out across CPU cores; -j bounds the number of concurrent runs
// (-j 1 forces the historical serial order). Output is byte-identical at
// every -j value. -progress adds live campaign status (jobs done, elapsed,
// ETA) on stderr, leaving stdout untouched.
//
// Exit status is non-zero if any check fails.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro"
	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/runner"
)

func main() {
	// SIGINT/SIGTERM cancel the campaign: in-flight simulations abort at
	// the next cancellation poll, whatever was already printed stands as
	// partial results, and the exit status is non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ftcheck: interrupted — results above are partial")
		}
		fmt.Fprintln(os.Stderr, "ftcheck:", err)
		os.Exit(1)
	}
}

// progressFn returns a progress callback (for runner.MapProgressContext or
// repro.CoverageOptions.Progress) that prints live campaign status for one
// phase to stderr, or nil when -progress is off. Both callers invoke the
// callback serially, and it writes only to stderr, so the checked stdout is
// untouched.
func progressFn(enabled bool, label string) func(done, total int) {
	if !enabled {
		return nil
	}
	var tr *runner.Tracker
	return func(done, total int) {
		if tr == nil {
			tr = runner.NewTracker(total)
		}
		tr.Advance(done)
		fmt.Fprintf(os.Stderr, "ftcheck: %s  %s\n", label, tr.Snapshot())
	}
}

func run(ctx context.Context) error {
	var (
		quick      = flag.Bool("quick", true, "scaled-down system (2x2 tiles)")
		ops        = flag.Int("ops", 300, "operations per core")
		seeds      = flag.Int("seeds", 3, "random campaign seeds per rate")
		jobs       = flag.Int("j", 0, "concurrent runs (0 = all cores, 1 = serial)")
		exhaustive = flag.Bool("exhaustive", false,
			"enumerate every single-loss fault slot and verify recovery from each")
		tileDeath = flag.Bool("tile-death", false,
			"kill every tile and mesh link at every enumerated slot and verify the extended recovery verdict")
		interleave = flag.Bool("interleave", false,
			"model-check mode: exhaustively explore message delivery interleavings (with a small loss budget) on a tiny configuration")
		budget = flag.Int("budget", 1,
			"fault budget for -interleave: maximum losses composed into any explored path")
		doubles = flag.Int("doubles", 24,
			"sampled double-fault runs in exhaustive mode (0 = none)")
		jsonOut = flag.String("json", "",
			"write the exhaustive coverage report as JSON to this file")
		progress = flag.Bool("progress", false,
			"print live campaign progress to stderr")
	)
	flag.Parse()

	cfg := repro.DefaultConfig()
	if *quick {
		cfg = repro.QuickConfig()
	}
	cfg.OpsPerCore = *ops
	cfg.Parallelism = *jobs

	opsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "ops" {
			opsSet = true
		}
	})

	if *interleave {
		// The checker enumerates every interleaving, so the workload must be
		// tiny: two handoff writes per contending core is the quick shape.
		if !opsSet {
			cfg.OpsPerCore = 2
		}
		return runInterleave(ctx, cfg, *budget, *jsonOut, *progress)
	}

	if *tileDeath {
		// The structural campaign runs once per (victim, slot) pair, so the
		// default workload is the shortest: the quick coverage shape.
		if !opsSet {
			cfg.OpsPerCore = 20
		}
		return runTileDeath(ctx, cfg, *jsonOut, *progress)
	}

	if *exhaustive {
		// The exhaustive campaign runs once per injectable message, so the
		// default workload length is shorter (the fault space grows
		// linearly with it); an explicit -ops wins.
		if !opsSet {
			cfg.OpsPerCore = 40
		}
		return runExhaustive(ctx, cfg, *doubles, *jsonOut, *progress)
	}

	failures := 0

	fmt.Println("== Phase 1: targeted single-message drops ==")
	types := repro.MessageTypes()
	nths := []uint64{1, 2, 5, 20, 100}
	type p1key struct {
		typ string
		nth uint64
	}
	var p1jobs []p1key
	for _, typ := range types {
		for _, nth := range nths {
			p1jobs = append(p1jobs, p1key{typ, nth})
		}
	}
	p1outs, err := runner.MapProgressContext(ctx, *jobs, len(p1jobs), func(ctx context.Context, i int) (repro.RecoveryOutcome, error) {
		return repro.CheckRecoveryContext(ctx, cfg, "uniform", p1jobs[i].typ, p1jobs[i].nth)
	}, progressFn(*progress, "phase 1  targeted drops"))
	if err != nil {
		return err
	}
	for ti, typ := range types {
		var dropped uint64
		for ni := range nths {
			out := p1outs[ti*len(nths)+ni]
			dropped += out.Dropped
			status := "ok"
			if !out.Recovered {
				status = fmt.Sprintf("FAILED: %v", out.Err)
				failures++
			}
			if !out.Recovered || !out.Fired {
				fmt.Printf("  drop %-13s #%-4d fired=%-5t %s\n", typ, out.Nth, out.Fired, status)
			}
		}
		fmt.Printf("  %-13s recovered from %d injected losses\n", typ, dropped)
	}

	fmt.Println("\n== Phase 1b: targeted drops during recovery (background loss) ==")
	// Ping-class messages only exist while the protocol is recovering, so
	// inject a background loss rate and then drop the recovery messages
	// themselves.
	ftTypes := msg.FtTypes()
	type p1bKey struct {
		typ  msg.Type
		nth  uint64
		seed int
	}
	type dropOutcome struct {
		fired   bool
		dropped uint64
		err     error
	}
	var p1bJobs []p1bKey
	for _, typ := range ftTypes {
		for _, nth := range []uint64{1, 2, 5} {
			for seed := 1; seed <= *seeds; seed++ {
				p1bJobs = append(p1bJobs, p1bKey{typ, nth, seed})
			}
		}
	}
	p1bOuts, err := runner.MapProgressContext(ctx, *jobs, len(p1bJobs), func(ctx context.Context, i int) (dropOutcome, error) {
		j := p1bJobs[i]
		c := cfg
		c.Protocol = repro.FtDirCMP
		c.Seed = uint64(j.seed)
		targeted := fault.NewNthOfType(j.typ, j.nth)
		inj := fault.NewChain(fault.NewRate(5000, uint64(j.seed)*101), targeted)
		_, err := repro.RunWithInjectorContext(ctx, c, "uniform", inj)
		if err != nil && ctx.Err() != nil {
			return dropOutcome{}, err
		}
		return dropOutcome{fired: targeted.Fired(), dropped: inj.Dropped(), err: err}, nil
	}, progressFn(*progress, "phase 1b recovery drops"))
	if err != nil {
		return err
	}
	perType := len(p1bJobs) / len(ftTypes)
	for ti, typ := range ftTypes {
		fired := 0
		var dropped uint64
		for k := 0; k < perType; k++ {
			i := ti*perType + k
			out, j := p1bOuts[i], p1bJobs[i]
			if out.fired {
				fired++
			}
			dropped += out.dropped
			if out.err != nil {
				fmt.Printf("  drop %-13s #%-3d seed=%d FAILED: %v\n", j.typ, j.nth, j.seed, out.err)
				failures++
			}
		}
		fmt.Printf("  %-13s recovered from %d targeted losses (%d total messages dropped)\n",
			typ, fired, dropped)
	}

	fmt.Println("\n== Phase 1c: FtTokenCMP targeted drops (the §5 comparison protocol) ==")
	tokenTypes := msg.TokenTypes()
	tokenNths := []uint64{1, 3, 10}
	type p1cKey struct {
		typ msg.Type
		nth uint64
	}
	var p1cJobs []p1cKey
	for _, typ := range tokenTypes {
		for _, nth := range tokenNths {
			p1cJobs = append(p1cJobs, p1cKey{typ, nth})
		}
	}
	p1cOuts, err := runner.MapProgressContext(ctx, *jobs, len(p1cJobs), func(ctx context.Context, i int) (dropOutcome, error) {
		j := p1cJobs[i]
		c := cfg
		c.Protocol = repro.FtTokenCMP
		targeted := fault.NewNthOfType(j.typ, j.nth)
		_, err := repro.RunWithInjectorContext(ctx, c, "uniform", targeted)
		if err != nil && ctx.Err() != nil {
			return dropOutcome{}, err
		}
		return dropOutcome{fired: targeted.Fired(), dropped: targeted.Dropped(), err: err}, nil
	}, progressFn(*progress, "phase 1c token drops"))
	if err != nil {
		return err
	}
	for ti, typ := range tokenTypes {
		var dropped uint64
		for ni := range tokenNths {
			i := ti*len(tokenNths) + ni
			out, j := p1cOuts[i], p1cJobs[i]
			dropped += out.dropped
			if out.err != nil {
				fmt.Printf("  drop %-15s #%-3d FAILED: %v\n", j.typ, j.nth, out.err)
				failures++
			}
		}
		fmt.Printf("  %-15s recovered from %d injected losses\n", typ, dropped)
	}

	fmt.Println("\n== Phase 2: random loss campaigns ==")
	rates := []int{500, 2000, 10000, 50000}
	type p2key struct {
		rate int
		seed int
	}
	type runOutcome struct {
		res *repro.Result
		err error
	}
	var p2jobs []p2key
	for _, rate := range rates {
		for seed := 1; seed <= *seeds; seed++ {
			p2jobs = append(p2jobs, p2key{rate, seed})
		}
	}
	p2outs, err := runner.MapProgressContext(ctx, *jobs, len(p2jobs), func(ctx context.Context, i int) (runOutcome, error) {
		j := p2jobs[i]
		c := cfg
		c.Protocol = repro.FtDirCMP
		c.Seed = uint64(j.seed)
		res, err := repro.RunWithInjectorContext(ctx, c, "uniform", fault.NewRate(j.rate, uint64(j.seed)*31))
		if err != nil && ctx.Err() != nil {
			return runOutcome{}, err
		}
		return runOutcome{res, err}, nil
	}, progressFn(*progress, "phase 2  random loss"))
	if err != nil {
		return err
	}
	for i, j := range p2jobs {
		out := p2outs[i]
		if out.err != nil {
			fmt.Printf("  rate=%-6d seed=%d FAILED: %v\n", j.rate, j.seed, out.err)
			failures++
			continue
		}
		fmt.Printf("  rate=%-6d seed=%d ok: %d dropped, %d reissues, %d pings\n",
			j.rate, j.seed, out.res.Dropped, out.res.RequestsReissued, out.res.LostUnblockTimeouts)
	}
	type burstOutcome struct {
		res     *repro.Result
		dropped uint64
		err     error
	}
	burstOuts, err := runner.MapProgressContext(ctx, *jobs, *seeds, func(ctx context.Context, i int) (burstOutcome, error) {
		c := cfg
		c.Protocol = repro.FtDirCMP
		inj := fault.NewBurst(500, 8, uint64(i+1))
		res, err := repro.RunWithInjectorContext(ctx, c, "uniform", inj)
		if err != nil && ctx.Err() != nil {
			return burstOutcome{}, err
		}
		return burstOutcome{res, inj.Dropped(), err}, nil
	}, progressFn(*progress, "phase 2  burst loss"))
	if err != nil {
		return err
	}
	for i, out := range burstOuts {
		if out.err != nil {
			fmt.Printf("  burst seed=%d FAILED: %v\n", i+1, out.err)
			failures++
			continue
		}
		fmt.Printf("  burst(len 8) seed=%d ok: %d dropped (injector reports %d)\n",
			i+1, out.res.Dropped, out.dropped)
	}

	fmt.Println("\n== Phase 3: DirCMP baseline must not survive message loss ==")
	c := cfg
	c.Protocol = repro.DirCMP
	c.CycleLimit = 5_000_000
	_, err = repro.RunWithInjectorContext(ctx, c, "uniform", fault.NewNthOfType(msg.GetX, 5))
	if err != nil && ctx.Err() != nil {
		return err
	}
	if err == nil {
		fmt.Println("  UNEXPECTED: DirCMP survived a lost GetX")
		failures++
	} else {
		fmt.Printf("  DirCMP with one lost GetX: %v (expected)\n", err)
	}

	if failures > 0 {
		return fmt.Errorf("%d checks failed", failures)
	}
	fmt.Println("\nAll checks passed.")
	return nil
}

// runTileDeath is the -tile-death mode: the structural-fault campaign.
// Every tile and every mesh link is killed at every enumerated injection
// slot under FtDirCMP, each run checked against the extended recovery
// verdict; then the DirCMP baseline is shown failing the tile-death sweep.
// Output is deterministic and identical at every -j level.
func runTileDeath(ctx context.Context, cfg repro.Config, jsonPath string, progress bool) error {
	fmt.Println("== Structural fault coverage: tile and link deaths, FtDirCMP ==")
	fmt.Printf("system %dx%d, %d mems, %d ops/core, workload uniform\n",
		cfg.MeshWidth, cfg.MeshHeight, cfg.MemControllers, cfg.OpsPerCore)

	rep, err := repro.TileDeathCoverageContext(ctx, cfg, "uniform", repro.TileDeathOptions{
		IncludeLinks: true,
		Progress:     progressFn(progress, "tile-death FtDirCMP"),
	})
	if err != nil {
		return err
	}
	slotsPerVictim := uint64(0)
	if len(rep.Rows) > 0 {
		slotsPerVictim = rep.Rows[0].Slots
	}
	fmt.Printf("baseline: %d cycles, %d injection slots per victim, memory image %#x\n\n",
		rep.BaselineCycles, slotsPerVictim, rep.BaselineMemHash)
	fmt.Print(rep.Table())

	failures := 0
	if rep.FullCoverage() {
		unrec := 0
		for _, row := range rep.Rows {
			unrec += row.Unrecoverable
		}
		fmt.Printf("\nfull structural coverage: all %d deaths recovered (survivors quiescent and coherent, memory image verified)\n",
			rep.SlotsTested)
		fmt.Printf("unrecoverable lines (freshest copy died with the tile, rolled back and counted): %d\n", unrec)
	} else {
		failures++
		fmt.Printf("\nSTRUCTURAL COVERAGE INCOMPLETE: %d of %d deaths recovered (%d failures)\n",
			rep.Recovered, rep.SlotsTested, rep.TotalFailures)
		for _, f := range rep.Failures {
			fmt.Printf("  %s, %s #%d: %s\n", f.Victim, f.Type, f.Nth, f.Err)
		}
	}

	fmt.Println("\n== Same tile-death sweep on the DirCMP baseline (must not recover) ==")
	c := cfg
	c.Protocol = repro.DirCMP
	c.CycleLimit = 5_000_000
	drep, err := repro.TileDeathCoverageContext(ctx, c, "uniform", repro.TileDeathOptions{
		Progress: progressFn(progress, "tile-death DirCMP"),
	})
	if err != nil {
		return err
	}
	fmt.Printf("DirCMP recovered %d of %d tile deaths (expected 0)\n", drep.Recovered, drep.SlotsTested)
	if drep.Recovered != 0 {
		failures++
		fmt.Println("  UNEXPECTED: the unprotected baseline survived a tile death")
	} else if len(drep.Failures) > 0 {
		f := drep.Failures[0]
		fmt.Printf("  e.g. %s, %s #%d: %s\n", f.Victim, f.Type, f.Nth, f.Err)
	}

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nstructural coverage report written to %s\n", jsonPath)
	}

	if failures > 0 {
		return fmt.Errorf("%d structural coverage checks failed", failures)
	}
	fmt.Println("\nAll structural coverage checks passed.")
	return nil
}

// runInterleave is the -interleave mode: the model-checking gate. The
// exploration itself fans out per frontier layer under -j; output is
// byte-identical at every -j level.
func runInterleave(ctx context.Context, cfg repro.Config, budget int, jsonPath string, progress bool) error {
	opt := repro.InterleaveOptions{FaultBudget: budget}
	if progress {
		opt.Progress = func(explored, frontier int) {
			fmt.Fprintf(os.Stderr, "ftcheck: interleave  %d states explored, frontier %d\n", explored, frontier)
		}
	}
	doc, err := repro.InterleaveGate(ctx, cfg, repro.InterleaveWorkload, opt)
	if err != nil {
		return err
	}
	fmt.Print(doc.Text())

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := doc.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\ninterleaving report written to %s (replay it with fttrace -replay)\n", jsonPath)
	}

	if err := doc.Err(); err != nil {
		return err
	}
	fmt.Println("\nAll interleaving checks passed.")
	return nil
}

// runExhaustive is the -exhaustive mode: enumerate every single-loss fault
// slot of the workload and prove FtDirCMP recovers from each one, then show
// DirCMP failing the same campaign. Output is deterministic and identical
// at every -j level.
func runExhaustive(ctx context.Context, cfg repro.Config, doubles int, jsonPath string, progress bool) error {
	fmt.Println("== Exhaustive fault coverage: FtDirCMP ==")
	fmt.Printf("system %dx%d, %d mems, %d ops/core, workload uniform\n",
		cfg.MeshWidth, cfg.MeshHeight, cfg.MemControllers, cfg.OpsPerCore)

	rep, err := repro.CoverageContext(ctx, cfg, "uniform", repro.CoverageOptions{
		DoubleFaultSamples: doubles,
		Seed:               1,
		Progress:           progressFn(progress, "exhaustive FtDirCMP"),
	})
	if err != nil {
		return err
	}
	fmt.Printf("baseline: %d cycles, %d injectable messages, memory image %#x\n\n",
		rep.BaselineCycles, rep.TotalSlots, rep.BaselineMemHash)
	fmt.Print(rep.Table())

	failures := 0
	if rep.FullCoverage() {
		fmt.Printf("\nfull coverage: recovered from every one of the %d possible single-message losses\n",
			rep.TotalSlots)
	} else {
		failures++
		fmt.Printf("\nCOVERAGE INCOMPLETE: %d of %d slots recovered (%d failures)\n",
			rep.Recovered, rep.SlotsTested, rep.TotalFailures)
		for _, f := range rep.Failures {
			fmt.Printf("  %s #%d: %s\n", f.Type, f.Nth, f.Err)
		}
	}

	if len(rep.DoubleFaults) > 0 {
		secondFired := 0
		for _, df := range rep.DoubleFaults {
			if df.SecondFired {
				secondFired++
			}
		}
		fmt.Printf("double faults: %d/%d sampled runs recovered (%d second drops fired)\n",
			rep.DoubleFaultRecovered, len(rep.DoubleFaults), secondFired)
		if rep.DoubleFaultRecovered != len(rep.DoubleFaults) {
			failures++
			for _, df := range rep.DoubleFaults {
				if !df.Recovered {
					fmt.Printf("  %s #%d (%s): %s\n", df.Type, df.Nth, df.Mode, df.Err)
				}
			}
		}
	}

	fmt.Println("\n== Same campaign on the DirCMP baseline (must not recover) ==")
	c := cfg
	c.Protocol = repro.DirCMP
	c.CycleLimit = 5_000_000
	drep, err := repro.CoverageContext(ctx, c, "uniform", repro.CoverageOptions{
		Progress: progressFn(progress, "exhaustive DirCMP"),
	})
	if err != nil {
		return err
	}
	fmt.Printf("DirCMP recovered %d of %d slots (expected 0)\n", drep.Recovered, drep.SlotsTested)
	if drep.Recovered != 0 {
		failures++
		fmt.Println("  UNEXPECTED: the unprotected baseline survived message loss")
	} else if len(drep.Failures) > 0 {
		fmt.Printf("  e.g. %s #%d: %s\n",
			drep.Failures[0].Type, drep.Failures[0].Nth, drep.Failures[0].Err)
	}

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\ncoverage report written to %s\n", jsonPath)
	}

	if failures > 0 {
		return fmt.Errorf("%d coverage checks failed", failures)
	}
	fmt.Println("\nAll coverage checks passed.")
	return nil
}
