package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/system"
	"repro/internal/workload"
)

// dircmpBaselineRun is one fault-free DirCMP run as the baseline golden
// records it: everything the paper's comparisons read off a run.
type dircmpBaselineRun struct {
	Workload              string            `json:"workload"`
	Cycles                uint64            `json:"cycles"`
	MessagesByType        map[string]uint64 `json:"messages_by_type"`
	BytesByType           map[string]uint64 `json:"bytes_by_type"`
	L2Misses              uint64            `json:"l2_misses"`
	CacheToCacheTransfers uint64            `json:"cache_to_cache_transfers"`
	Writebacks            uint64            `json:"writebacks"`
	MemoryImageHash       string            `json:"memory_image_hash"`
}

// dircmpLostMessage is a DirCMP run with one targeted loss: the baseline
// must deadlock, at a fixed cycle with a fixed set of stuck transactions.
type dircmpLostMessage struct {
	Workload          string `json:"workload"`
	Type              string `json:"type"`
	Nth               uint64 `json:"nth"`
	DeadlockCycle     uint64 `json:"deadlock_cycle"`
	StuckTransactions int    `json:"stuck_transactions"`
}

type dircmpBaseline struct {
	OpsPerCore int                 `json:"ops_per_core"`
	Runs       []dircmpBaselineRun `json:"runs"`
	// QuickRuns repeats the suite on the quick system, whose small L2
	// banks make the directory recall and write lines back to memory.
	QuickRuns []dircmpBaselineRun `json:"quick_runs"`
	LostGetX  dircmpLostMessage   `json:"lost_getx"`
}

// dircmpBaselineOps is the Figure 3 run length on the Table 4 system.
const dircmpBaselineOps = 2000

// TestDirCMPBaselineGolden pins the DirCMP baseline bit for bit: cycles,
// per-type message counts and bytes, L2 misses, cache-to-cache transfers,
// writebacks and the final memory image of every suite workload on the
// Table 4 and the quick system, plus the deadlock a single lost GetX causes
// on the quick system. DirCMP is FtDirCMP with its four mechanisms
// switched off, so a change to the shared controllers that leaks into the
// baseline shows up here. Regenerate with `go test -run
// TestDirCMPBaselineGolden -update-golden .` only when the baseline is
// meant to change.
func TestDirCMPBaselineGolden(t *testing.T) {
	got := dircmpBaseline{OpsPerCore: dircmpBaselineOps}
	for _, name := range Workloads() {
		got.Runs = append(got.Runs, runDirCMPBaseline(t, DefaultConfig(), name))
		got.QuickRuns = append(got.QuickRuns, runDirCMPBaseline(t, QuickConfig(), name))
	}
	got.LostGetX = runDirCMPLostGetX(t)

	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dircmp_baseline.json", append(out, '\n'))
}

func runDirCMPBaseline(t *testing.T, cfg Config, name string) dircmpBaselineRun {
	t.Helper()
	cfg.Protocol = DirCMP
	cfg.OpsPerCore = dircmpBaselineOps
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sysCfg := cfg.toInternal()
	sysCfg.Obs = cfg.recorder()
	s, err := system.New(sysCfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Run(w)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r := dircmpBaselineRun{
		Workload:              name,
		Cycles:                run.Cycles,
		MessagesByType:        map[string]uint64{},
		BytesByType:           map[string]uint64{},
		L2Misses:              run.Proto.L2Misses,
		CacheToCacheTransfers: run.Proto.CacheToCacheTransfers,
		Writebacks:            run.Proto.Writebacks,
		MemoryImageHash:       fmt.Sprintf("%#016x", s.MemoryImageHash()),
	}
	for _, typ := range msg.AllTypes() {
		if n := run.Net.SentByType[typ]; n > 0 {
			r.MessagesByType[typ.String()] = n
			r.BytesByType[typ.String()] = run.Net.BytesByType[typ]
		}
	}
	return r
}

func runDirCMPLostGetX(t *testing.T) dircmpLostMessage {
	t.Helper()
	cfg := QuickConfig()
	cfg.Protocol = DirCMP
	lost := dircmpLostMessage{Workload: "uniform", Type: msg.GetX.String(), Nth: 1}
	_, err := RunWithInjectorContext(context.Background(), cfg, lost.Workload, fault.NewNthOfType(msg.GetX, lost.Nth))
	var dl *system.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("DirCMP with a lost GetX: want a deadlock, got %v", err)
	}
	lost.DeadlockCycle = dl.Cycle
	lost.StuckTransactions = dl.Stuck
	return lost
}
