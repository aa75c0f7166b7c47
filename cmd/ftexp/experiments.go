package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/trace"
)

// faultRates is the Figure 3 sweep: messages lost per million.
var faultRates = []int{0, 125, 250, 500, 1000, 2000}

type experiments struct {
	ctx      context.Context // cancelled on SIGINT/SIGTERM
	quick    bool
	ops      int
	jobs     int  // concurrent simulations (0 = all cores)
	progress bool // print live campaign progress to stderr
}

// context returns the campaign's cancellation context (Background when the
// struct was built without one, e.g. in tests).
func (e *experiments) context() context.Context {
	if e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}

// tracker starts live progress tracking for a campaign of total jobs; it
// returns a nil tracker (all methods no-ops) when -progress is off.
func (e *experiments) tracker(total int) *runner.Tracker {
	if !e.progress {
		return nil
	}
	return runner.NewTracker(total)
}

// report prints one progress line to stderr after a job completes. Progress
// goes to stderr only, so stdout stays byte-identical with and without it.
func report(t *runner.Tracker, res *repro.Result) {
	if t == nil {
		return
	}
	t.JobDone(res.Dropped, res.FaultsUnattributed)
	fmt.Fprintln(os.Stderr, "ftexp:", t.Snapshot())
}

// config returns the sweep configuration (the paper's system, or a 2x2
// version with -quick).
func (e *experiments) config() repro.Config {
	cfg := repro.DefaultConfig()
	if e.quick {
		cfg.MeshWidth = 2
		cfg.MeshHeight = 2
		cfg.MemControllers = 2
		cfg.L1Size = 8 * 1024
		cfg.L2BankSize = 64 * 1024
		cfg.OpsPerCore = 400
	}
	if e.ops > 0 {
		cfg.OpsPerCore = e.ops
	}
	cfg.Parallelism = e.jobs
	return cfg
}

// workloadSweep is one workload's figure-3 data: the fault-free DirCMP
// baseline and the FtDirCMP run at each fault rate.
type workloadSweep struct {
	workload string
	base     *repro.Result
	sweep    []*repro.Result
}

// sweepAll runs the DirCMP baseline and the Figure 3 fault sweep for every
// workload as one flat parallel batch (one job per simulation, so a slow
// workload does not serialize the others). Results are deterministic and
// ordered, independent of -j. recordSpans additionally reconstructs
// transaction spans on every run (pure observation — the results are
// unchanged; the JSON export uses them for the phase breakdowns).
func (e *experiments) sweepAll(recordSpans bool) ([]workloadSweep, error) {
	names := repro.Workloads()
	type point struct {
		workload string
		rate     int // -1 selects the DirCMP baseline
	}
	pts := make([]point, 0, len(names)*(1+len(faultRates)))
	for _, name := range names {
		pts = append(pts, point{name, -1})
		for _, rate := range faultRates {
			pts = append(pts, point{name, rate})
		}
	}
	track := e.tracker(len(pts))
	var mu sync.Mutex
	results, err := runner.MapContext(e.context(), e.jobs, len(pts), func(ctx context.Context, i int) (*repro.Result, error) {
		pt := pts[i]
		var cfg repro.Config
		if pt.rate < 0 {
			cfg = withProtocol(e.config(), repro.DirCMP)
		} else {
			cfg = repro.SweepConfig(e.config(), pt.rate)
		}
		cfg.RecordSpans = recordSpans
		res, err := repro.RunContext(ctx, cfg, pt.workload)
		if err != nil {
			if pt.rate < 0 {
				return nil, fmt.Errorf("%s baseline: %w", pt.workload, err)
			}
			return nil, fmt.Errorf("%s: rate %d: %w", pt.workload, pt.rate, err)
		}
		if pt.rate >= 0 {
			res.FaultRatePerMillion = pt.rate
		}
		mu.Lock()
		report(track, res)
		mu.Unlock()
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]workloadSweep, len(names))
	stride := 1 + len(faultRates)
	for i, name := range names {
		out[i] = workloadSweep{
			workload: name,
			base:     results[i*stride],
			sweep:    results[i*stride+1 : (i+1)*stride],
		}
	}
	return out, nil
}

func (e *experiments) table(n int) error {
	switch n {
	case 1:
		fmt.Print(trace.Table1())
	case 2:
		fmt.Print(trace.Table2())
	case 3:
		fmt.Print(trace.Table3())
	case 4:
		e.table4()
	default:
		return fmt.Errorf("no table %d", n)
	}
	return nil
}

// table4 prints the simulated system configuration (paper Table 4).
func (e *experiments) table4() {
	cfg := e.config()
	fmt.Println("Table 4. Characteristics of simulated architectures.")
	fmt.Printf("\n%d-Way Tiled CMP System\n", cfg.MeshWidth*cfg.MeshHeight)
	fmt.Println("\nCache parameters")
	fmt.Printf("  Cache line size                  %d bytes\n", cfg.LineSize)
	fmt.Printf("  L1 cache: size, associativity    %dKB, %d ways\n", cfg.L1Size/1024, cfg.L1Ways)
	fmt.Printf("  L1 hit time                      %d cycles\n", cfg.L1HitLatency)
	fmt.Printf("  Shared L2: size, associativity   %dKB per bank, %d ways\n", cfg.L2BankSize/1024, cfg.L2Ways)
	fmt.Printf("  L2 hit time                      %d cycles\n", cfg.L2HitLatency)
	fmt.Println("\nMemory parameters")
	fmt.Printf("  Memory access time               %d cycles\n", cfg.MemLatency)
	fmt.Printf("  Memory interleaving              %d controllers, line interleaved\n", cfg.MemControllers)
	fmt.Println("\nNetwork parameters")
	fmt.Printf("  Topology                         %dx%d mesh, XY routing\n", cfg.MeshWidth, cfg.MeshHeight)
	fmt.Printf("  Non-data message size            %d bytes\n", cfg.ControlMsgSize)
	fmt.Printf("  Data message size                %d bytes\n", cfg.DataMsgSize)
	fmt.Printf("  Channel bandwidth                %d bytes/cycle\n", cfg.FlitBytes)
	fmt.Printf("  Hop latency                      %d cycles\n", cfg.HopLatency)
	fmt.Println("\nFault tolerance parameters")
	fmt.Printf("  Lost request timeout             %d cycles\n", cfg.LostRequestTimeout)
	fmt.Printf("  Lost unblock timeout             %d cycles\n", cfg.LostUnblockTimeout)
	fmt.Printf("  Lost backup deletion ack timeout %d cycles\n", cfg.LostAckBDTimeout)
	fmt.Printf("  Backup (OwnershipPing) timeout   %d cycles\n", cfg.BackupTimeout)
	fmt.Printf("  Request serial number size       %d bits\n", cfg.SerialNumberBits)
}

func (e *experiments) figure(n int) error {
	switch n {
	case 1:
		return e.figure1()
	case 2:
		return e.figure2()
	case 3:
		return e.figure3()
	case 4:
		return e.figure4()
	case 5:
		return e.figure5()
	case 6:
		return e.figure6()
	default:
		return fmt.Errorf("no figure %d", n)
	}
}

// figure6 quantifies the paper's §5 comparison against the authors'
// previous fault-tolerant protocol: FtDirCMP (directory, per-request
// serial numbers, reissue recovery) vs FtTokenCMP (token coherence,
// per-line token serial numbers, centralized token recreation).
func (e *experiments) figure6() error {
	fmt.Println("Figure 6 (extra analysis). The §5 comparison, quantified:")
	fmt.Println("FtDirCMP vs FtTokenCMP per workload (fault-free and at 1000/M).")
	fmt.Println()
	fmt.Printf("%-12s %-11s %12s %12s %12s %10s %10s %10s\n",
		"workload", "protocol", "cycles", "messages", "bytes", "recover*", "recreate", "serialTab")
	fmt.Println("  (*recover = reissues for FtDirCMP, retries for FtTokenCMP)")
	type cell struct {
		workload string
		rate     int
		protocol repro.Protocol
	}
	var cells []cell
	for _, name := range repro.Workloads() {
		for _, rate := range []int{0, 1000} {
			for _, p := range []repro.Protocol{repro.FtDirCMP, repro.FtTokenCMP} {
				cells = append(cells, cell{name, rate, p})
			}
		}
	}
	results, err := runner.MapContext(e.context(), e.jobs, len(cells), func(ctx context.Context, i int) (*repro.Result, error) {
		c := cells[i]
		cfg := e.config()
		cfg.Protocol = c.protocol
		cfg.FaultRatePerMillion = c.rate
		cfg.FaultSeed = uint64(c.rate) + 5
		res, err := repro.RunContext(ctx, cfg, c.workload)
		if err != nil {
			return nil, fmt.Errorf("%s/%s@%d: %w", c.workload, c.protocol, c.rate, err)
		}
		return res, nil
	})
	if err != nil {
		return err
	}
	for i, c := range cells {
		res := results[i]
		recover := res.RequestsReissued
		if c.protocol == repro.FtTokenCMP {
			recover = res.TokenRetries
		}
		label := c.protocol.String()
		if c.rate > 0 {
			label += "@1k"
		}
		fmt.Printf("%-12s %-11s %12d %12d %12d %10d %10d %10d\n",
			c.workload, label, res.Cycles, res.Messages, res.Bytes,
			recover, res.TokenRecreations, res.TokenSerialPeak)
	}
	fmt.Println("\nThe §5 points to verify: the token protocol broadcasts every miss,")
	fmt.Println("so it moves far more messages; its recovery needs a per-line serial")
	fmt.Println("table (serialTab > 0 only after recreations) while FtDirCMP keeps")
	fmt.Println("serial numbers in the MSHR only; and recreation is a centralized,")
	fmt.Println("whole-line process where FtDirCMP just reissues one request.")
	return nil
}

// figure5 is an analysis beyond the paper's figures: the miss-latency
// distribution as a function of the fault rate. It makes the paper's
// §4.2 claim mechanistically visible — faults do not slow every miss
// down, they add a tail of misses bounded by the detection timeouts.
func (e *experiments) figure5() error {
	fmt.Println("Figure 5 (extra analysis). Miss latency distribution vs fault rate")
	fmt.Println("(uniform workload; latencies in cycles; pXX are bucketed upper bounds).")
	fmt.Println()
	fmt.Printf("%8s %12s %10s %8s %8s %8s %10s %10s\n",
		"rate/M", "misses", "mean", "p50", "p95", "p99", "max", "reissues")
	var onDone func(repro.ProgressSnapshot)
	if e.progress {
		onDone = func(s repro.ProgressSnapshot) { fmt.Fprintln(os.Stderr, "ftexp:", s) }
	}
	results, err := repro.FaultSweepContext(e.context(), e.config(), "uniform", faultRates, onDone)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%8d %12d %10.1f %8d %8d %8d %10d %10d\n",
			r.FaultRatePerMillion, r.ReadMisses+r.WriteMisses, r.AvgMissLatency,
			r.MissLatencyP50, r.MissLatencyP95, r.MissLatencyP99,
			r.MissLatencyMax, r.RequestsReissued)
	}
	fmt.Println("\nReading the table: the median miss is unaffected by faults; the")
	fmt.Println("p99/max tail grows to roughly the lost-request timeout plus the")
	fmt.Println("retried round trip, exactly the paper's detection-latency argument.")
	return nil
}

// figure1 stages the paper's Figure 1 transaction — a cache-to-cache write
// miss with ownership change — under both protocols and prints the
// resulting message sequences.
func (e *experiments) figure1() error {
	fmt.Println("Figure 1. How FtDirCMP performs cache-to-cache transfers (vs DirCMP).")
	fmt.Println("Scenario: L1b (tile 1) holds the line modified; L1a (tile 0) requests")
	fmt.Println("write access. FtDirCMP adds the AckO/AckBD ownership handshake.")
	for _, p := range []system.Protocol{system.DirCMP, system.FtDirCMP} {
		seq, err := stageOwnershipChange(p)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s:\n%s", p, seq)
	}
	return nil
}

// stageOwnershipChange runs the scripted two-cache transaction and returns
// the traced message sequence for the line.
func stageOwnershipChange(p system.Protocol) (string, error) {
	cfg := system.DefaultConfig()
	cfg.Protocol = p
	cfg.MeshWidth = 2
	cfg.MeshHeight = 2
	cfg.Mems = 1
	rec := obs.NewRecorder(0)
	cfg.Obs = rec
	const addr = 0x40
	s, err := system.New(cfg)
	if err != nil {
		return "", err
	}
	ports := s.Ports()

	// Phase 1 (not traced as part of the figure): L1b acquires the line in
	// a modifiable state.
	phase1 := make(chan struct{}, 1)
	ports[1].Write(addr, 0xb0b, func(proto.AccessResult) { phase1 <- struct{}{} })
	if err := s.Engine().Run(0); err != nil {
		return "", err
	}
	select {
	case <-phase1:
	default:
		return "", fmt.Errorf("setup write did not complete")
	}

	// Phase 2: the traced transaction — L1a requests write access.
	wire := obs.NewWireLog(64, addr)
	rec.EnableMessageFeed()
	rec.SetSink(wire.Observe)
	ports[0].Write(addr, 0xa0a, func(proto.AccessResult) {})
	if err := s.Engine().Run(0); err != nil {
		return "", err
	}
	return wire.String(), nil
}

// figure2 demonstrates the request-serial-number mechanism (§3.5): under
// heavy loss, reissued requests race with late responses, and the stale
// responses are discarded instead of corrupting coherence.
func (e *experiments) figure2() error {
	fmt.Println("Figure 2. Request serial numbers discard responses to superseded")
	fmt.Println("request attempts, preventing the paper's incoherence scenario.")
	cfg := e.config()
	cfg.Protocol = repro.FtDirCMP
	cfg.FaultRatePerMillion = 20000
	cfg.FaultSeed = 3
	res, err := repro.RunContext(e.context(), cfg, "hotspot")
	if err != nil {
		return err
	}
	fmt.Printf("\n  messages lost:               %d\n", res.Dropped)
	fmt.Printf("  requests reissued:           %d\n", res.RequestsReissued)
	fmt.Printf("  stale responses discarded:   %d\n", res.StaleSNDiscarded)
	fmt.Printf("  false-positive timeouts:     %d\n", res.FalsePositives)
	fmt.Println("  data-integrity + coherence checks: PASSED (enforced by Run)")
	return nil
}

// figure3 reproduces the execution-time sweep: FtDirCMP at several fault
// rates, normalized to fault-free DirCMP, per workload.
func (e *experiments) figure3() error {
	fmt.Println("Figure 3. FtDirCMP execution time under faults, normalized to DirCMP")
	fmt.Println("(rows: workloads; columns: messages lost per million).")
	fmt.Println()

	header := fmt.Sprintf("%-12s", "workload")
	for _, r := range faultRates {
		header += fmt.Sprintf(" %9s", fmt.Sprintf("Ft-%d", r))
	}
	fmt.Println(header)

	sweeps, err := e.sweepAll(false)
	if err != nil {
		return err
	}
	sums := make([]float64, len(faultRates))
	count := 0
	for _, ws := range sweeps {
		row := fmt.Sprintf("%-12s", ws.workload)
		for i, res := range ws.sweep {
			ratio := res.TimeOverheadVs(ws.base)
			sums[i] += ratio
			row += fmt.Sprintf(" %9.3f", ratio)
		}
		count++
		fmt.Println(row)
	}
	row := fmt.Sprintf("%-12s", "average")
	for i := range faultRates {
		row += fmt.Sprintf(" %9.3f", sums[i]/float64(count))
	}
	fmt.Println(row)
	return nil
}

// figure4 reproduces the fault-free network-overhead breakdown: FtDirCMP
// traffic relative to DirCMP, in messages and bytes, by category.
func (e *experiments) figure4() error {
	fmt.Println("Figure 4. Network overhead of FtDirCMP compared to DirCMP without")
	fmt.Println("faults (per workload; categories normalized to the DirCMP total).")
	fmt.Println()

	cats := []string{"request", "response", "coherence", "unblock", "writeback", "ownership", "ping"}
	names := repro.Workloads()
	type comparison struct{ dir, ft *repro.Result }
	// One job per workload; each job's CompareContext runs serially inside so the
	// batch is the only fan-out level. The serial loop used to repeat every
	// comparison for the bytes section; the runs are deterministic, so one
	// batch feeds both sections.
	pairs, err := runner.MapContext(e.context(), e.jobs, len(names), func(ctx context.Context, i int) (comparison, error) {
		cfg := e.config()
		cfg.Parallelism = 1
		dir, ft, err := repro.CompareContext(ctx, cfg, names[i])
		if err != nil {
			return comparison{}, fmt.Errorf("%s: %w", names[i], err)
		}
		return comparison{dir, ft}, nil
	})
	if err != nil {
		return err
	}
	for _, unit := range []string{"messages", "bytes"} {
		fmt.Printf("-- relative number of %s --\n", unit)
		header := fmt.Sprintf("%-12s %9s", "workload", "total")
		for _, c := range cats {
			header += fmt.Sprintf(" %10s", c)
		}
		fmt.Println(header)
		var sumTotal float64
		var n int
		for wi, name := range names {
			dir, ft := pairs[wi].dir, pairs[wi].ft
			var base float64
			var ftCats map[string]uint64
			var total float64
			if unit == "messages" {
				base = float64(dir.Messages)
				ftCats = ft.MessagesByCategory
				total = ft.MessageOverheadVs(dir)
			} else {
				base = float64(dir.Bytes)
				ftCats = ft.BytesByCategory
				total = ft.ByteOverheadVs(dir)
			}
			row := fmt.Sprintf("%-12s %9.3f", name, total)
			for _, c := range cats {
				row += fmt.Sprintf(" %10.3f", float64(ftCats[c])/base)
			}
			fmt.Println(row)
			sumTotal += total
			n++
		}
		fmt.Printf("%-12s %9.3f\n\n", "average", sumTotal/float64(n))
	}
	fmt.Println(strings.TrimSpace(`
The paper's observation to verify: the message overhead comes almost
entirely from the "ownership" category (AckO/AckBD), and the byte overhead
is much smaller than the message overhead because those acknowledgments
are small control messages.`))
	return nil
}

// profile runs the per-miss latency-attribution comparison (`ftexp
// -profile`): spans reconstruct every coherence transaction under both
// protocols, and the table shows what fault tolerance costs each miss class
// per phase — the paper's §5.1 "negligible overhead" claim, measured — plus
// the penalty under a 1000/M fault rate.
func (e *experiments) profile() error {
	fmt.Println("Per-miss latency attribution (see docs/OBSERVABILITY.md for the")
	fmt.Println("phase taxonomy; deltas are mean cycles per miss, by phase).")
	fmt.Println()
	cfg := repro.SweepConfig(e.config(), 1000)
	rep, err := repro.ProfileContext(e.context(), cfg, "uniform")
	if err != nil {
		return err
	}
	fmt.Print(rep.Report())
	fmt.Println("\nThe §5.1 point to verify: the fault-free overhead column is near")
	fmt.Println("zero (the AckO/AckBD handshake runs off the critical path), while")
	fmt.Println("under faults the penalty concentrates in stall_timeout — detection")
	fmt.Println("latency, bounded by the Table 3 timeouts.")
	return nil
}

func withProtocol(cfg repro.Config, p repro.Protocol) repro.Config {
	cfg.Protocol = p
	cfg.FaultRatePerMillion = 0
	return cfg
}
