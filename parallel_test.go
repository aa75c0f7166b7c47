package repro

import (
	"context"
	"reflect"
	"testing"
)

// TestFaultSweepParallelMatchesSerial pins the parallel runner's
// determinism contract end to end: a FaultSweep fanned out across workers
// must produce results byte-identical to the serial (Parallelism 1) loop,
// rendered reports included.
func TestFaultSweepParallelMatchesSerial(t *testing.T) {
	cfg := testConfig()
	cfg.OpsPerCore = 120
	cfg.RecordEvents = true // the event log must be identical too
	rates := []int{0, 500, 2000}

	serial := cfg
	serial.Parallelism = 1
	want, err := FaultSweepContext(context.Background(), serial, "uniform", rates, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, j := range []int{0, 2, 4} {
		par := cfg
		par.Parallelism = j
		got, err := FaultSweepContext(context.Background(), par, "uniform", rates, nil)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if len(got) != len(want) {
			t.Fatalf("j=%d: %d results, want %d", j, len(got), len(want))
		}
		for i := range want {
			if got[i].ReportText != want[i].ReportText {
				t.Errorf("j=%d rate=%d: report diverged from serial run\nserial:\n%s\nparallel:\n%s",
					j, rates[i], want[i].ReportText, got[i].ReportText)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("j=%d rate=%d: result fields diverged from serial run", j, rates[i])
			}
		}
	}
}

func TestCompareParallelMatchesSerial(t *testing.T) {
	cfg := testConfig()
	cfg.OpsPerCore = 120

	serial := cfg
	serial.Parallelism = 1
	wantDir, wantFt, err := CompareContext(context.Background(), serial, "migratory")
	if err != nil {
		t.Fatal(err)
	}

	par := cfg
	par.Parallelism = 2
	gotDir, gotFt, err := CompareContext(context.Background(), par, "migratory")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDir, wantDir) || !reflect.DeepEqual(gotFt, wantFt) {
		t.Error("parallel Compare diverged from serial run")
	}
}
