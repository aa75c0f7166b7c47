package repro

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/workload"
)

// quickCoverageConfig is the exhaustive-campaign configuration `make
// coverage-quick` runs: small enough that the full single-loss fault space
// (every injectable message of the run) is a few hundred slots.
func quickCoverageConfig() Config {
	cfg := DefaultConfig()
	cfg.MeshWidth = 2
	cfg.MeshHeight = 2
	cfg.MemControllers = 2
	cfg.L1Size = 8 * 1024
	cfg.L2BankSize = 32 * 1024
	cfg.OpsPerCore = 20
	return cfg
}

// TestCoverageExhaustiveQuick is the headline robustness claim: FtDirCMP
// recovers from every single possible lost message of the quick workload —
// every run terminates, passes the coherence and data-value checks, and
// reproduces the fault-free memory image — while DirCMP recovers from none.
func TestCoverageExhaustiveQuick(t *testing.T) {
	rep, err := Coverage(quickCoverageConfig(), "uniform", CoverageOptions{
		DoubleFaultSamples: 8,
		Seed:               1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullCoverage() {
		t.Fatalf("FtDirCMP coverage incomplete: %d/%d recovered, failures: %v",
			rep.Recovered, rep.SlotsTested, rep.Failures)
	}
	if rep.TotalSlots < 100 {
		t.Fatalf("suspiciously small fault space: %d slots", rep.TotalSlots)
	}
	for _, df := range rep.DoubleFaults {
		if !df.Recovered {
			t.Errorf("double fault not recovered: %+v", df)
		}
	}

	cfg := quickCoverageConfig()
	cfg.Protocol = DirCMP
	cfg.CycleLimit = 5_000_000
	drep, err := Coverage(cfg, "uniform", CoverageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if drep.Recovered != 0 {
		t.Fatalf("DirCMP recovered %d slots; the unprotected baseline must not survive any loss",
			drep.Recovered)
	}
	if drep.TotalFailures != drep.SlotsTested {
		t.Fatalf("DirCMP failures %d != slots tested %d", drep.TotalFailures, drep.SlotsTested)
	}
}

// TestGoldenCoverageReport pins the quick coverage report byte-for-byte —
// table and JSON — and requires it to be identical at every parallelism
// level. Regenerate with `go test -run TestGoldenCoverageReport
// -update-golden .` after an intentional protocol or schema change.
func TestGoldenCoverageReport(t *testing.T) {
	render := func(parallelism int) ([]byte, []byte) {
		cfg := quickCoverageConfig()
		cfg.Parallelism = parallelism
		rep, err := Coverage(cfg, "uniform", CoverageOptions{
			DoubleFaultSamples: 8,
			Seed:               1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return []byte(rep.Table()), js.Bytes()
	}
	tblSerial, jsSerial := render(1)
	tblAll, jsAll := render(0)
	if !bytes.Equal(tblSerial, tblAll) {
		t.Fatalf("coverage table differs between -j 1 and -j 0:\n%s\nvs\n%s", tblSerial, tblAll)
	}
	if !bytes.Equal(jsSerial, jsAll) {
		t.Fatal("coverage JSON differs between -j 1 and -j 0")
	}
	checkGolden(t, "coverage.txt", tblSerial)
	checkGolden(t, "coverage.json", jsSerial)
}

// TestDoubleFaultReissueRegression pins the paper's hardest single-line
// scenario: a request is lost, the lost-request timeout fires, the request
// is reissued — and the reissue is lost too. FtDirCMP must detect and
// reissue again, and the run must pass every check. Both drops hit the same
// line, so the result attributes one fault window per injection on that
// line: two injections, two recoveries.
func TestDoubleFaultReissueRegression(t *testing.T) {
	inj := fault.NewNthOfType(msg.GetX, 3).AlsoDropReissue()
	res, err := RunWithInjectorContext(context.Background(), quickCoverageConfig(), "uniform", inj)
	if err != nil {
		t.Fatalf("double fault (GetX #3 + its reissue) not survived: %v", err)
	}
	if !inj.Fired() {
		t.Fatal("first drop never fired")
	}
	if !inj.SecondFired() {
		t.Fatal("the reissue was never dropped — the scenario did not happen")
	}
	if got := inj.Dropped(); got != 2 {
		t.Fatalf("injector dropped %d messages, want 2", got)
	}
	if res.Dropped != 2 {
		t.Fatalf("network counted %d drops, want 2", res.Dropped)
	}
	if res.FaultsInjected != 2 {
		t.Fatalf("FaultsInjected = %d, want 2 (one per injection)", res.FaultsInjected)
	}
	if res.FaultsRecovered != 2 {
		t.Fatalf("FaultsRecovered = %d, want 2 (both windows on the faulted line closed)",
			res.FaultsRecovered)
	}
	if res.RequestsReissued < 2 {
		t.Fatalf("RequestsReissued = %d, want >= 2 (the reissue itself was reissued)",
			res.RequestsReissued)
	}
	// The memory image must match a fault-free run of the same workload.
	clean, err := Run(quickCoverageConfig(), "uniform")
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryImageHash != clean.MemoryImageHash {
		t.Fatalf("memory image diverged: %#x != fault-free %#x",
			res.MemoryImageHash, clean.MemoryImageHash)
	}
}

// freshCampaignRun is coverageRun without the reuse: every run builds a
// fresh system and recorder. It is the reference a reused worker's runs
// must match.
func freshCampaignRun(ctx context.Context, cfg Config, w workload.Workload, image bool) coverage.RunFunc {
	cfg.CheckIntegrity = true
	return func(inj fault.Injector) coverage.Outcome {
		rec := obs.NewRecorder(coverageRing)
		s, st, err := simulate(ctx, cfg, w, inj, rec)
		if s == nil {
			return coverage.Outcome{Err: err.Error()}
		}
		return coverageOutcome(s, st, rec, err, image)
	}
}

// recordRuns runs a campaign at parallelism 1 on run, through campaign,
// and returns every run's Outcome in the order the campaign ran them.
func recordRuns(t *testing.T, run coverage.RunFunc, campaign func(coverage.RunFunc) error) []coverage.Outcome {
	t.Helper()
	var outs []coverage.Outcome
	record := func(inj fault.Injector) coverage.Outcome {
		out := run(inj)
		outs = append(outs, out)
		return out
	}
	if err := campaign(record); err != nil {
		t.Fatal(err)
	}
	return outs
}

// requireSameOutcomes fails unless every reused run's Outcome deep-equals
// the fresh run's, and returns how many runs failed and how many of the
// failures' error texts contain mark.
func requireSameOutcomes(t *testing.T, reused, fresh []coverage.Outcome, mark string) (failed, marked int) {
	t.Helper()
	if len(reused) != len(fresh) {
		t.Fatalf("the reused worker ran %d runs, fresh systems %d", len(reused), len(fresh))
	}
	for i := range fresh {
		if fresh[i].Err != "" {
			failed++
		}
		if strings.Contains(fresh[i].Err, mark) {
			marked++
		}
		if !reflect.DeepEqual(reused[i], fresh[i]) {
			t.Fatalf("run %d of %d on the reused worker:\n%+v\non a fresh system:\n%+v",
				i, len(fresh), reused[i], fresh[i])
		}
	}
	return failed, marked
}

// TestCoverageReuseMatchesFresh: a message-loss campaign runs every slot
// on a campaign worker's one system and recorder, reset with the slot's
// injector, and each run must reach exactly the Outcome a fresh system
// and recorder reach: cycles, memory hash, timeouts by kind, faults
// injected and recovered, the largest recovery latency and the error text.
// DirCMP's deadlock dumps name each stuck line's last recorded event, so
// stale events left in the ring would show in its error text. Both
// campaigns run at parallelism 1, so each calls its RunFunc in the same
// order: the census, every slot of the quick single-loss golden, then (for
// FtDirCMP) 24 sampled double faults.
func TestCoverageReuseMatchesFresh(t *testing.T) {
	w, err := workload.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	dir := quickCoverageConfig()
	dir.Protocol = DirCMP
	dir.CycleLimit = 5_000_000 // as ftcheck -exhaustive: DirCMP may spin until the limit
	for _, tc := range []struct {
		cfg     Config
		doubles int
	}{
		{quickCoverageConfig(), 24},
		{dir, 0},
	} {
		t.Run(tc.cfg.Protocol.String(), func(t *testing.T) {
			ctx := context.Background()
			cfg := tc.cfg
			cfg.Parallelism = 1
			campaign := func(run coverage.RunFunc) error {
				_, err := coverage.RunContext(ctx, run, coverage.Options{
					Parallelism:        1,
					DoubleFaultSamples: tc.doubles,
					Seed:               1,
				})
				return err
			}
			reused := recordRuns(t, coverageRun(ctx, cfg, w, false), campaign)
			fresh := recordRuns(t, freshCampaignRun(ctx, cfg, w, false), campaign)
			failed, dumps := requireSameOutcomes(t, reused, fresh, " last=")
			t.Logf("%d runs, %d failed, %d naming last events, all equal", len(fresh), failed, dumps)
			if tc.cfg.Protocol == DirCMP && dumps == 0 {
				t.Fatal("no DirCMP deadlock dump names a last event: the event ring went unchecked")
			}
		})
	}
}

// TestTileDeathReuseMatchesFresh: the structural campaign of the quick
// golden, every tile and every mesh link killed at every enumerated slot,
// runs each death on a campaign worker's one system and recorder, reset
// with the death's injector, and each run must reach exactly the Outcome a
// fresh system reaches, its per-line memory image and recovery fields
// (declaration, reconstruction latency, unrecoverable lines) included.
// Under DirCMP every tile death deadlocks, and the dump names the dead
// nodes, so dead nodes, dead links, failure domains or halted controllers
// left over from an earlier death would show in an Outcome.
func TestTileDeathReuseMatchesFresh(t *testing.T) {
	w, err := workload.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	dir := quickCoverageConfig()
	dir.Protocol = DirCMP
	dir.CycleLimit = 5_000_000 // as ftcheck -tile-death
	for _, cfg := range []Config{quickCoverageConfig(), dir} {
		t.Run(cfg.Protocol.String(), func(t *testing.T) {
			ctx := context.Background()
			cfg.Parallelism = 1
			campaign := func(run coverage.RunFunc) error {
				_, err := coverage.RunStructuralContext(ctx, run, coverage.StructuralOptions{
					Parallelism:  1,
					Tiles:        cfg.MeshWidth * cfg.MeshHeight,
					Links:        meshLinks(cfg.MeshWidth, cfg.MeshHeight),
					VictimWrites: victimWriteSets(cfg, w),
				})
				return err
			}
			reused := recordRuns(t, coverageRun(ctx, cfg, w, true), campaign)
			fresh := recordRuns(t, freshCampaignRun(ctx, cfg, w, true), campaign)
			failed, dumps := requireSameOutcomes(t, reused, fresh, "dead nodes:")
			declared, unrec := 0, 0
			for _, out := range fresh {
				if out.DeathDeclared {
					declared++
				}
				unrec += out.LinesUnrecoverable
			}
			t.Logf("%d runs, %d failed, %d naming dead nodes, %d deaths declared, %d unrecoverable lines, all equal",
				len(fresh), failed, dumps, declared, unrec)
			switch {
			case cfg.Protocol == DirCMP && dumps == 0:
				t.Fatal("no DirCMP deadlock dump names the dead nodes: the dead set went unchecked")
			case cfg.Protocol == FtDirCMP && (declared == 0 || unrec == 0):
				t.Fatal("no FtDirCMP death was declared with unrecoverable lines: the recovery fields went unchecked")
			}
		})
	}
}
