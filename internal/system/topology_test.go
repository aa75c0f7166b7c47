package system

// Degenerate and unusual topologies: the protocols must be correct on any
// mesh shape, memory-controller count and structural parameter, not just
// the paper's 4x4.

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/workload"
)

func TestSingleTileSystem(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		cfg := smallConfig(p)
		cfg.MeshWidth, cfg.MeshHeight, cfg.Mems = 1, 1, 1
		cfg.OpsPerCore = 300
		mustRun(t, cfg, workload.Uniform(64, 0.5))
	})
}

func TestOneDimensionalMesh(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		cfg := smallConfig(p)
		cfg.MeshWidth, cfg.MeshHeight, cfg.Mems = 4, 1, 2
		cfg.OpsPerCore = 200
		mustRun(t, cfg, workload.Uniform(64, 0.5))
	})
}

func TestTallMeshUnderFaults(t *testing.T) {
	cfg := smallConfig(FtDirCMP)
	cfg.MeshWidth, cfg.MeshHeight, cfg.Mems = 1, 4, 1
	cfg.OpsPerCore = 200
	cfg.Injector = fault.NewRate(5000, 3)
	mustRun(t, cfg, workload.Uniform(64, 0.5))
}

func TestSingleMemoryController(t *testing.T) {
	cfg := smallConfig(FtDirCMP)
	cfg.Mems = 1
	cfg.OpsPerCore = 200
	cfg.Injector = fault.NewRate(3000, 5)
	mustRun(t, cfg, workload.Scan(1024))
}

func TestManyMemoryControllers(t *testing.T) {
	cfg := smallConfig(FtDirCMP)
	cfg.Mems = 4
	cfg.OpsPerCore = 200
	mustRun(t, cfg, workload.Scan(1024))
}

func TestBoundedMSHRs(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		cfg := smallConfig(p)
		cfg.Params.MSHRs = 1
		cfg.OpsPerCore = 200
		if p == FtDirCMP {
			cfg.Injector = fault.NewRate(3000, 7)
		}
		mustRun(t, cfg, workload.Uniform(64, 0.5))
	})
}

func TestDirectMappedCaches(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		cfg := smallConfig(p)
		cfg.Params.L1Ways = 1
		cfg.Params.L1Size = 16 * 64 // 16 direct-mapped lines
		cfg.Params.L2Ways = 1
		cfg.Params.L2Size = 64 * 64
		cfg.OpsPerCore = 200
		mustRun(t, cfg, workload.Uniform(128, 0.5))
	})
}

func TestZeroThinkTime(t *testing.T) {
	cfg := smallConfig(FtDirCMP)
	cfg.ThinkTime = 0
	cfg.OpsPerCore = 200
	cfg.Injector = fault.NewRate(3000, 11)
	mustRun(t, cfg, workload.Hotspot(8, 128))
}

func TestInvalidConfigsRejected(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MeshWidth = 0 },
		func(c *Config) { c.Mems = 0 },
		func(c *Config) { c.Params.LineSize = 48 },
		func(c *Config) { c.Params.L1Size = 0 },
		func(c *Config) { c.Protocol = Protocol(99) },
	}
	for i, mutate := range bad {
		cfg := smallConfig(FtDirCMP)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestNegativeOpsPerCoreRejected: a negative operation count is refused by
// New, before Begin would size per-core streams from it and panic.
func TestNegativeOpsPerCoreRejected(t *testing.T) {
	cfg := smallConfig(FtDirCMP)
	cfg.OpsPerCore = -1
	_, err := New(cfg)
	if err == nil || err.Error() != "system: negative operations per core -1" {
		t.Fatalf("New with OpsPerCore -1: err = %v", err)
	}
}

// TestGoldenDeterminism pins exact results for one fixed configuration so
// that unintended behaviour changes are caught. If a deliberate protocol
// or model change shifts these numbers, update them after reviewing the
// diff — the point is that shifts never go unnoticed.
func TestGoldenDeterminism(t *testing.T) {
	golden := func() Config {
		cfg := smallConfig(FtDirCMP)
		cfg.OpsPerCore = 200
		cfg.Seed = 12345
		// A fresh injector per run: the injector is stateful.
		cfg.Injector = fault.NewRate(2000, 999)
		return cfg
	}
	s := mustRun(t, golden(), workload.Uniform(128, 0.5))
	st := s.Stats()

	// Re-run: must be bit-identical.
	s2 := mustRun(t, golden(), workload.Uniform(128, 0.5))
	st2 := s2.Stats()
	if st.Cycles != st2.Cycles ||
		st.Net.TotalMessages() != st2.Net.TotalMessages() ||
		st.Net.TotalBytes() != st2.Net.TotalBytes() ||
		st.Net.TotalDropped() != st2.Net.TotalDropped() ||
		st.Proto.RequestsReissued != st2.Proto.RequestsReissued {
		t.Fatalf("simulation is not deterministic:\n%s\nvs\n%s", st.Report(), st2.Report())
	}
	if st.Ops != 800 {
		t.Fatalf("ops = %d, want 800", st.Ops)
	}
}
