package repro

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/span"
)

// spanConfig is the fixed-seed fault-free run the span golden files pin:
// the golden system with span recording on and AckO piggybacking off, so
// ownership handshakes travel as standalone messages that targeted drops
// can hit.
func spanConfig() Config {
	cfg := goldenConfig()
	cfg.FaultRatePerMillion = 0
	cfg.RecordEvents = false
	cfg.RecordSpans = true
	cfg.DisableAckOPiggyback = true
	return cfg
}

// checkAttribution asserts the span invariant the whole reconstruction
// rests on: every cycle of every span is attributed to a phase.
func checkAttribution(t *testing.T, res *Result) {
	t.Helper()
	spans := res.Spans()
	if len(spans) == 0 {
		t.Fatal("run reconstructed no spans")
	}
	for _, s := range spans {
		if s.Attributed() != s.Duration() {
			t.Fatalf("span %d (%s @%#x): attributed %d != duration %d",
				uint64(s.TID), s.Class, uint64(s.Addr), s.Attributed(), s.Duration())
		}
	}
	if b := res.Breakdown(); b == nil || b.Spans != len(spans) {
		t.Fatalf("breakdown missing or inconsistent: %+v vs %d spans", b, len(spans))
	}
}

// goldenSpan pins one span's JSONL rendering as a golden file.
func goldenSpan(t *testing.T, name string, s *span.Span) {
	t.Helper()
	var buf bytes.Buffer
	if err := span.WriteJSONL(&buf, []*span.Span{s}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name, buf.Bytes())
}

// TestGoldenSpanTrees pins the reconstructed span tree of a clean L1 GetX
// miss and of misses recovering from a dropped AckO and a dropped AckBD —
// the ownership-handshake faults of §3.2 — byte-for-byte. Regenerate with
// `go test -run TestGoldenSpanTrees -update-golden .` after an intentional
// schema change.
func TestGoldenSpanTrees(t *testing.T) {
	clean, err := Run(spanConfig(), "uniform")
	if err != nil {
		t.Fatal(err)
	}
	checkAttribution(t, clean)
	var getx *span.Span
	for _, s := range clean.Spans() {
		if s.Class == "l1.GetX" && s.Complete {
			getx = s
			break
		}
	}
	if getx == nil {
		t.Fatal("clean run has no complete l1.GetX span")
	}
	if getx.Timeouts != 0 || getx.Faults != 0 {
		t.Fatalf("clean GetX span saw recovery activity: %+v", getx)
	}
	goldenSpan(t, "span_clean_getx.json", getx)

	for _, tc := range []struct {
		name   string
		typ    msg.Type
		golden string
	}{
		{"lost-AckO", msg.AckO, "span_lost_acko.json"},
		{"lost-AckBD", msg.AckBD, "span_lost_ackbd.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := fault.NewNthOfType(tc.typ, 1)
			res, err := RunWithInjectorContext(context.Background(), spanConfig(), "uniform", inj)
			if err != nil {
				t.Fatal(err)
			}
			if !inj.Fired() {
				t.Fatalf("targeted %s drop never fired", tc.typ)
			}
			checkAttribution(t, res)
			var faulted *span.Span
			for _, s := range res.Spans() {
				if s.Faults > 0 {
					faulted = s
					break
				}
			}
			if faulted == nil {
				t.Fatalf("no span carries the dropped %s", tc.typ)
			}
			// The recovery must be visible in the tree: the detection
			// stall and the reissued handshake appear as child segments.
			if faulted.Timeouts == 0 {
				t.Fatalf("faulted span fired no timeout: %+v", faulted)
			}
			var stalled bool
			for _, seg := range faulted.Segments {
				if seg.Phase == span.PhaseStall {
					stalled = true
				}
			}
			if !stalled {
				t.Fatalf("faulted span has no stall segment: %+v", faulted.Segments)
			}
			goldenSpan(t, tc.golden, faulted)
		})
	}
}

// TestSpanRecordingDoesNotPerturb: span recording is pure observation — a
// faulty golden run with spans on reports the exact same simulation results
// (cycles, traffic, memory image) as with spans off.
func TestSpanRecordingDoesNotPerturb(t *testing.T) {
	off := goldenConfig()
	on := off
	on.RecordSpans = true
	a, err := Run(off, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(on, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Ops != b.Ops {
		t.Fatalf("cycles/ops diverged: %d/%d vs %d/%d", a.Cycles, a.Ops, b.Cycles, b.Ops)
	}
	if a.Messages != b.Messages || a.Dropped != b.Dropped {
		t.Fatalf("traffic diverged: %d/%d vs %d/%d", a.Messages, a.Dropped, b.Messages, b.Dropped)
	}
	if a.MemoryImageHash != b.MemoryImageHash {
		t.Fatalf("memory image diverged: %#x vs %#x", a.MemoryImageHash, b.MemoryImageHash)
	}
	if len(a.Spans()) != 0 {
		t.Fatal("spans recorded without RecordSpans")
	}
	checkAttribution(t, b)
}

// TestProfileQuick runs the latency profiler on the quick system and checks
// the acceptance bar: a complete phase breakdown for 100% of transactions
// on every run, and a per-class overhead table comparing the protocols.
func TestProfileQuick(t *testing.T) {
	cfg := goldenConfig()
	cfg.RecordEvents = false
	rep, err := ProfileContext(context.Background(), cfg, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	checkAttribution(t, rep.Dir)
	checkAttribution(t, rep.Ft)
	if rep.Faulty == nil {
		t.Fatal("profile of a faulty config has no faulty run")
	}
	checkAttribution(t, rep.Faulty)
	if len(rep.Overhead) == 0 || len(rep.FaultPenalty) == 0 {
		t.Fatal("profile reports no deltas")
	}
	if rep.Report() == "" {
		t.Fatal("empty profile report")
	}
}

// TestSpansIdenticalAcrossParallelism: the span export is part of the
// deterministic result surface — Profile at -j1 and -jN must produce
// byte-identical span JSONL for every run.
func TestSpansIdenticalAcrossParallelism(t *testing.T) {
	cfg := goldenConfig()
	cfg.RecordEvents = false
	serial := cfg
	serial.Parallelism = 1
	parallel := cfg
	parallel.Parallelism = 0
	a, err := ProfileContext(context.Background(), serial, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProfileContext(context.Background(), parallel, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		x, y *Result
	}{{"dir", a.Dir, b.Dir}, {"ft", a.Ft, b.Ft}, {"faulty", a.Faulty, b.Faulty}} {
		var bx, by bytes.Buffer
		if err := pair.x.WriteSpansJSONL(&bx); err != nil {
			t.Fatal(err)
		}
		if err := pair.y.WriteSpansJSONL(&by); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bx.Bytes(), by.Bytes()) {
			t.Fatalf("%s spans differ across parallelism levels", pair.name)
		}
	}
	if a.Report() != b.Report() {
		t.Fatal("profile report differs across parallelism levels")
	}
}
