package repro

// Cancellation-plumbing tests: server deadlines, client disconnects and
// SIGINT all reach the simulator through context.Context (RunContext,
// FaultSweepContext, CoverageContext, ...), which must abort in-flight
// campaigns promptly with an error wrapping context.Canceled — never a
// partial Result.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/canon"
)

// TestQuickConfigHashGolden pins the canonical content hash of the
// quick-system configuration. The experiment-serving cache (internal/serve)
// keys results by hashes like this one, so the hash must be stable across
// releases: if this test fails, either Config gained/renamed a hashed field
// or the canonicalization changed — both invalidate every persisted cache
// key, and the constant here must only be regenerated deliberately.
func TestQuickConfigHashGolden(t *testing.T) {
	const want = "sha256:715f0ce1f2044736b3d496235cce944d77b367f66bf526da3f0c01ec601a8262"
	got, err := canon.Hash(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("canonical hash of QuickConfig changed:\n got %s\nwant %s\n"+
			"(cache keys are derived from this; update the constant only if the change is intentional)", got, want)
	}
}

// Parallelism must not be part of the cache identity: it is an execution
// knob, not a simulated-system parameter.
func TestConfigHashIgnoresParallelism(t *testing.T) {
	a := QuickConfig()
	b := QuickConfig()
	b.Parallelism = 7
	ha, err := canon.Hash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := canon.Hash(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatal("Parallelism leaked into the canonical hash")
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := QuickConfig()
	cfg.OpsPerCore = 50
	_, err := RunContext(ctx, cfg, "uniform")
	if err == nil {
		t.Fatal("expected error from cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := QuickConfig()
	cfg.OpsPerCore = 500_000 // far longer than the test will wait
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	res, err := RunContext(ctx, cfg, "uniform")
	if err == nil {
		t.Fatal("expected cancellation error, got a result")
	}
	if res != nil {
		t.Fatal("cancelled run returned a partial result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; the cancel poll is not reaching the event loop", elapsed)
	}
}

func TestFaultSweepContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := QuickConfig()
	cfg.OpsPerCore = 50
	_, err := FaultSweepContext(ctx, cfg, "uniform", []int{100, 200, 300}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FaultSweepContext error %v does not wrap context.Canceled", err)
	}
}

// TestCoverageContextCancelled: a campaign cancelled at any point — during
// its slot runs or during its double-fault samples — returns an error
// wrapping context.Canceled and no report.
func TestCoverageContextCancelled(t *testing.T) {
	cfg := QuickConfig()
	cfg.OpsPerCore = 10
	cfg.Parallelism = 1
	opt := CoverageOptions{DoubleFaultSamples: 4, Seed: 1}
	full, err := Coverage(cfg, "uniform", opt)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		// cancelAt is the progress count at which the campaign is cancelled.
		cancelAt int
	}{
		{"after the first slot", 1},
		{"after the last slot, before the double faults", full.SlotsTested},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opt := opt
			opt.Progress = func(done, total int) {
				if done == c.cancelAt {
					cancel()
				}
			}
			rep, err := CoverageContext(ctx, cfg, "uniform", opt)
			if err == nil {
				t.Fatalf("expected cancellation error, got report with %d slots tested and double faults %+v",
					rep.SlotsTested, rep.DoubleFaults)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("CoverageContext error %v does not wrap context.Canceled", err)
			}
			if rep != nil {
				t.Fatalf("cancelled campaign returned a report")
			}
		})
	}
}

func TestCompareContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := QuickConfig()
	cfg.OpsPerCore = 50
	_, _, err := CompareContext(ctx, cfg, "uniform")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CompareContext error %v does not wrap context.Canceled", err)
	}
}

// TestRunRejectsUnusableFaultParams checks that configurations which used
// to crash or hang a run are refused up front: a zero serial-number width
// panicked in FtDirCMP and silently zeroed every FtTokenCMP serial number,
// and any zero Table 3 timeout re-armed a zero-delay timer forever at a
// fixed cycle, which only context cancellation could stop. Each must now
// fail validation, promptly and without touching the deadline.
func TestRunRejectsUnusableFaultParams(t *testing.T) {
	cases := []struct {
		name     string
		protocol Protocol
		edit     func(*Config)
	}{
		{"FtDirCMP zero serial bits", FtDirCMP, func(c *Config) { c.SerialNumberBits = 0 }},
		{"FtTokenCMP zero serial bits", FtTokenCMP, func(c *Config) { c.SerialNumberBits = 0 }},
		{"FtDirCMP zero lost-request timeout", FtDirCMP, func(c *Config) { c.LostRequestTimeout = 0 }},
		{"FtDirCMP zero lost-unblock timeout", FtDirCMP, func(c *Config) { c.LostUnblockTimeout = 0 }},
		{"FtDirCMP zero lost-AckBD timeout", FtDirCMP, func(c *Config) { c.LostAckBDTimeout = 0 }},
		{"FtDirCMP zero backup timeout", FtDirCMP, func(c *Config) { c.BackupTimeout = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := QuickConfig()
			cfg.Protocol = c.protocol
			cfg.OpsPerCore = 200
			c.edit(&cfg)
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			res, err := RunContext(ctx, cfg, "uniform")
			if err == nil {
				t.Fatalf("run accepted the configuration (%d cycles)", res.Cycles)
			}
			if ctx.Err() != nil {
				t.Fatalf("run was only stopped by the 1 s deadline: %v", err)
			}
		})
	}
}
