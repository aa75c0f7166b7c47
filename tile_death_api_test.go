package repro

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestTileDeathCoverageQuick runs a sampled structural campaign on the quick
// configuration: every tile killed at a sampled slot set, plus the link
// sweep. Every FtDirCMP run must pass the extended recovery verdict.
func TestTileDeathCoverageQuick(t *testing.T) {
	rep, err := TileDeathCoverageContext(context.Background(), quickCoverageConfig(), "uniform", TileDeathOptions{
		MaxSlotsPerType: 2,
		IncludeLinks:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != rep.SlotsTested || rep.TotalFailures != 0 {
		t.Fatalf("structural campaign incomplete: %d/%d recovered, failures: %v",
			rep.Recovered, rep.SlotsTested, rep.Failures)
	}
	tiles, links := 0, 0
	for _, row := range rep.Rows {
		switch row.Mode {
		case "tile-death":
			tiles++
			if !strings.HasPrefix(row.Type, "tile ") {
				t.Errorf("tile-death row named %q", row.Type)
			}
			if row.LatencyMax == 0 {
				t.Errorf("row %q: no reconstruction latency recorded", row.Type)
			}
		case "link-death":
			links++
		default:
			t.Errorf("row %q has unexpected mode %q", row.Type, row.Mode)
		}
		if row.Tested == 0 || row.Recovered != row.Tested {
			t.Errorf("row %q: %d/%d recovered", row.Type, row.Recovered, row.Tested)
		}
	}
	if tiles != 4 {
		t.Errorf("%d tile rows, want 4 (one per tile)", tiles)
	}
	if links != 4 {
		t.Errorf("%d link rows, want 4 (one per 2x2 mesh link)", links)
	}
}

// TestTileDeathCoverageDeterministic pins the -j independence claim: the
// rendered report is byte-identical serial and parallel.
func TestTileDeathCoverageDeterministic(t *testing.T) {
	opt := TileDeathOptions{MaxSlotsPerType: 1, IncludeLinks: true}
	render := func(parallelism int) ([]byte, []byte) {
		cfg := quickCoverageConfig()
		cfg.Parallelism = parallelism
		rep, err := TileDeathCoverageContext(context.Background(), cfg, "uniform", opt)
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return []byte(rep.Table()), js.Bytes()
	}
	t1, j1 := render(1)
	t0, j0 := render(0)
	if !bytes.Equal(t1, t0) {
		t.Errorf("table differs between -j 1 and -j 0:\n%s\nvs\n%s", t1, t0)
	}
	if !bytes.Equal(j1, j0) {
		t.Error("JSON report differs between -j 1 and -j 0")
	}
}

// TestGoldenTileDeathReport pins the exhaustive quick structural campaign —
// every tile and every mesh link killed at every enumerated injection slot —
// byte-for-byte, table and JSON. (-j independence of the same pipeline is
// pinned by TestTileDeathCoverageDeterministic.) Regenerate with `go test
// -run TestGoldenTileDeathReport -update-golden .` after an intentional
// protocol or schema change.
func TestGoldenTileDeathReport(t *testing.T) {
	rep, err := TileDeathCoverageContext(context.Background(), quickCoverageConfig(), "uniform", TileDeathOptions{
		IncludeLinks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != rep.SlotsTested {
		t.Fatalf("exhaustive structural campaign incomplete: %d/%d recovered, failures: %v",
			rep.Recovered, rep.SlotsTested, rep.Failures)
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tile_death.txt", []byte(rep.Table()))
	checkGolden(t, "tile_death.json", js.Bytes())
}

// TestTileDeathCoverageDirCMPContrast pins the baseline contrast: DirCMP has
// no detection or reconstruction machinery, so no tile-death run recovers.
func TestTileDeathCoverageDirCMPContrast(t *testing.T) {
	cfg := quickCoverageConfig()
	cfg.Protocol = DirCMP
	cfg.CycleLimit = 5_000_000
	rep, err := TileDeathCoverageContext(context.Background(), cfg, "uniform", TileDeathOptions{MaxSlotsPerType: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 0 {
		t.Fatalf("DirCMP recovered %d/%d tile deaths; it has no recovery machinery",
			rep.Recovered, rep.SlotsTested)
	}
	if rep.TotalFailures != rep.SlotsTested {
		t.Errorf("failures %d != tested %d", rep.TotalFailures, rep.SlotsTested)
	}
}
