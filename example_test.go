package repro_test

import (
	"context"
	"fmt"
	"strings"

	"repro"
)

// The smallest complete use: simulate the paper's system on a lossy
// network and inspect the recovery counters.
func Example() {
	cfg := repro.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight, cfg.MemControllers = 2, 2, 2
	cfg.OpsPerCore = 200
	cfg.FaultRatePerMillion = 2000
	cfg.FaultSeed = 42

	res, err := repro.Run(cfg, "uniform")
	if err != nil {
		fmt.Println("failed:", err)
		return
	}
	fmt.Println("completed:", res.Ops, "operations")
	fmt.Println("recovered from faults:", res.Dropped > 0 && res.RequestsReissued > 0)
	// Output:
	// completed: 800 operations
	// recovered from faults: true
}

// Comparing the fault-tolerant protocol against the baseline reproduces
// the paper's central overhead result.
func ExampleCompareContext() {
	cfg := repro.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight, cfg.MemControllers = 2, 2, 2
	cfg.OpsPerCore = 300

	dir, ft, err := repro.CompareContext(context.Background(), cfg, "uniform")
	if err != nil {
		fmt.Println("failed:", err)
		return
	}
	fmt.Println("FtDirCMP sends more messages:", ft.Messages > dir.Messages)
	fmt.Println("byte overhead below message overhead:",
		ft.ByteOverheadVs(dir) < ft.MessageOverheadVs(dir))
	// Output:
	// FtDirCMP sends more messages: true
	// byte overhead below message overhead: true
}

// Targeted fault injection proves a specific message type is recoverable.
func ExampleCheckRecoveryContext() {
	cfg := repro.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight, cfg.MemControllers = 2, 2, 2
	cfg.OpsPerCore = 200

	out, err := repro.CheckRecoveryContext(context.Background(), cfg, "uniform", "DataEx", 3)
	if err != nil {
		fmt.Println("failed:", err)
		return
	}
	fmt.Println("dropped a DataEx:", out.Fired)
	fmt.Println("protocol recovered:", out.Recovered)
	// Output:
	// dropped a DataEx: true
	// protocol recovered: true
}

// Traces exported from the built-in workloads replay deterministically.
func ExampleRunTrace() {
	cfg := repro.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight, cfg.MemControllers = 2, 2, 2

	trace := "0 w 1\n1 r 1\n1 w 1\n0 r 1\n"
	res, err := repro.RunTrace(cfg, "demo", strings.NewReader(trace))
	if err != nil {
		fmt.Println("failed:", err)
		return
	}
	fmt.Println("ops:", res.Ops)
	// Output:
	// ops: 4
}
