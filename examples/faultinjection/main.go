// Faultinjection sweeps message-loss rates over one workload and shows how
// FtDirCMP's execution time degrades gracefully while DirCMP cannot run at
// all — the core claim of the paper's evaluation (Figure 3).
package main

import (
	"context"
	"fmt"
	"os"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "faultinjection:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := repro.DefaultConfig()
	cfg.OpsPerCore = 1000

	// The fault-free DirCMP baseline everything is normalized to.
	base := cfg
	base.Protocol = repro.DirCMP
	baseline, err := repro.Run(base, "uniform")
	if err != nil {
		return err
	}
	fmt.Printf("DirCMP fault-free baseline: %d cycles\n\n", baseline.Cycles)

	rates := []int{0, 125, 250, 500, 1000, 2000, 4000}
	results, err := repro.FaultSweepContext(context.Background(), cfg, "uniform", rates, nil)
	if err != nil {
		return err
	}

	fmt.Printf("%8s %12s %10s %9s %9s %9s %9s\n",
		"rate/M", "cycles", "normalized", "dropped", "reissues", "pings", "falsepos")
	for _, r := range results {
		fmt.Printf("%8d %12d %10.3f %9d %9d %9d %9d\n",
			r.FaultRatePerMillion, r.Cycles, r.TimeOverheadVs(baseline),
			r.Dropped, r.RequestsReissued, r.LostUnblockTimeouts, r.FalsePositives)
	}

	fmt.Println("\nFor contrast, DirCMP with the same loss rates deadlocks:")
	bad := base
	bad.FaultRatePerMillion = 250
	bad.FaultSeed = 42
	bad.CycleLimit = 10_000_000
	if _, err := repro.Run(bad, "uniform"); err != nil {
		fmt.Println("  ", err)
	} else {
		fmt.Println("   unexpectedly survived (file a bug!)")
	}
	return nil
}
