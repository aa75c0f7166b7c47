package repro

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunTraceRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.OpsPerCore = 150
	var buf bytes.Buffer
	if err := WriteTrace(cfg, "uniform", &buf); err != nil {
		t.Fatal(err)
	}
	exported := buf.String()

	// Replaying the exported trace must match running the workload
	// directly — same cycles, same traffic.
	direct, err := Run(cfg, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := RunTrace(cfg, "replay", strings.NewReader(exported))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cycles != replayed.Cycles || direct.Messages != replayed.Messages {
		t.Fatalf("replay diverged: cycles %d vs %d, messages %d vs %d",
			direct.Cycles, replayed.Cycles, direct.Messages, replayed.Messages)
	}
	// The replay's Result is as complete as the direct run's: the final
	// memory image hash and, when recorded, the transaction spans.
	if direct.MemoryImageHash == 0 || direct.MemoryImageHash != replayed.MemoryImageHash {
		t.Fatalf("memory image hash: direct %#x, replayed %#x", direct.MemoryImageHash, replayed.MemoryImageHash)
	}
	cfg.RecordSpans = true
	direct, err = Run(cfg, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	replayed, err = RunTrace(cfg, "replay", strings.NewReader(exported))
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Spans()) == 0 || len(direct.Spans()) != len(replayed.Spans()) {
		t.Fatalf("spans: direct %d, replayed %d", len(direct.Spans()), len(replayed.Spans()))
	}
}

func TestRunTraceHandWritten(t *testing.T) {
	trace := `
# two cores ping-ponging one line
0 w 1
1 w 1
0 r 1
1 r 1
0 w 2
`
	res, err := RunTrace(testConfig(), "hand", strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 5 {
		t.Fatalf("ops = %d, want 5", res.Ops)
	}
}

func TestRunTraceTooManyCores(t *testing.T) {
	trace := "9 r 1\n"
	if _, err := RunTrace(testConfig(), "big", strings.NewReader(trace)); err == nil {
		t.Fatal("trace with out-of-range core accepted")
	}
}

func TestRunTraceBadFormat(t *testing.T) {
	if _, err := RunTrace(testConfig(), "bad", strings.NewReader("zork\n")); err == nil {
		t.Fatal("malformed trace accepted")
	}
}
