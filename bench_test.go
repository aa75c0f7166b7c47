package repro

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index). Each benchmark
// runs complete simulations and reports the paper's metric as a custom
// benchmark metric:
//
//   - BenchmarkFig3ExecutionTime: cycles per run for both protocols,
//     fault-free ("the execution time does not increase").
//   - BenchmarkFig3FaultRate: FtDirCMP execution time normalized to
//     fault-free DirCMP at each loss rate (norm-time metric).
//   - BenchmarkFig4NetworkOverhead: relative messages and bytes vs DirCMP
//     (msg-overhead and byte-overhead metrics).
//   - BenchmarkTables12MessageCodec: the CRC-protected message codec that
//     implements the failure model behind Tables 1/2.
//   - BenchmarkAblation*: design-choice ablations called out in DESIGN.md.
//   - BenchmarkSpanReconstruction / BenchmarkEventEmission: the cost of the
//     observability layer — span rebuilding off the event stream, and the
//     per-event emission hot path with instrumentation off/on.
//
// These are `go test -bench` entry points; the repository benchmark is
// BENCHMARK.json, run with `bash bench/run.sh` (see bench/README.md).
// cmd/ftexp prints the same results as the paper's tables.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/system"
	"repro/internal/workload"
)

// benchConfig is a reduced system so each benchmark iteration stays cheap.
func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.MeshWidth = 2
	cfg.MeshHeight = 2
	cfg.MemControllers = 2
	cfg.L1Size = 8 * 1024
	cfg.L2BankSize = 64 * 1024
	cfg.OpsPerCore = 400
	return cfg
}

func mustRunB(b *testing.B, cfg Config, workload string) *Result {
	b.Helper()
	res, err := Run(cfg, workload)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig3ExecutionTime measures fault-free execution time for both
// protocols on every workload (the Figure 3 zero-fault bars and the §4.2
// claim that FtDirCMP adds no execution-time overhead).
func BenchmarkFig3ExecutionTime(b *testing.B) {
	for _, p := range []Protocol{DirCMP, FtDirCMP} {
		for _, w := range Workloads() {
			b.Run(fmt.Sprintf("%s/%s", p, w), func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					cfg := benchConfig()
					cfg.Protocol = p
					cycles = mustRunB(b, cfg, w).Cycles
				}
				b.ReportMetric(float64(cycles), "cycles")
			})
		}
	}
}

// BenchmarkFig3FaultRate measures FtDirCMP under each loss rate of the
// Figure 3 sweep, reporting execution time normalized to fault-free
// DirCMP.
func BenchmarkFig3FaultRate(b *testing.B) {
	base := benchConfig()
	base.Protocol = DirCMP
	baseline, err := Run(base, "uniform")
	if err != nil {
		b.Fatal(err)
	}
	for _, rate := range []int{0, 125, 250, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("rate%d", rate), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.FaultRatePerMillion = rate
				cfg.FaultSeed = uint64(rate) + 5
				res = mustRunB(b, cfg, "uniform")
			}
			b.ReportMetric(res.TimeOverheadVs(baseline), "norm-time")
			b.ReportMetric(float64(res.Dropped), "dropped")
		})
	}
}

// BenchmarkFig4NetworkOverhead measures FtDirCMP's fault-free traffic
// overhead relative to DirCMP (messages and bytes) per workload.
func BenchmarkFig4NetworkOverhead(b *testing.B) {
	for _, w := range Workloads() {
		b.Run(w, func(b *testing.B) {
			var dir, ft *Result
			for i := 0; i < b.N; i++ {
				var err error
				dir, ft, err = CompareContext(context.Background(), benchConfig(), w)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ft.MessageOverheadVs(dir), "msg-overhead")
			b.ReportMetric(ft.ByteOverheadVs(dir), "byte-overhead")
			ownership := float64(ft.MessagesByCategory["ownership"]) / float64(dir.Messages)
			b.ReportMetric(ownership, "ownership-share")
		})
	}
}

// BenchmarkTables12MessageCodec measures the CRC-protected wire codec that
// realizes the paper's failure model (corrupted messages are discarded on
// arrival).
func BenchmarkTables12MessageCodec(b *testing.B) {
	m := &msg.Message{
		Type: msg.DataEx, Src: 3, Dst: 7, Addr: 0xdeadbeef, SN: 42,
		Payload: msg.Payload{Value: 0x1234, Version: 9}, AckCount: 3, Dirty: true,
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if buf := msg.Encode(m); len(buf) == 0 {
				b.Fatal("empty encoding")
			}
		}
	})
	buf := msg.Encode(m)
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := msg.Decode(buf); !ok {
				b.Fatal("decode failed")
			}
		}
	})
}

// BenchmarkAblationTimeout sweeps the lost-request timeout under a fixed
// fault rate: the §4.2 detection-latency / false-positive tradeoff.
func BenchmarkAblationTimeout(b *testing.B) {
	for _, timeout := range []uint64{250, 1000, 2000, 8000} {
		b.Run(fmt.Sprintf("timeout%d", timeout), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.LostRequestTimeout = timeout
				cfg.LostUnblockTimeout = timeout + timeout/2
				cfg.LostAckBDTimeout = timeout + timeout/2
				cfg.BackupTimeout = 2 * timeout
				cfg.FaultRatePerMillion = 2000
				cfg.FaultSeed = 13
				res = mustRunB(b, cfg, "uniform")
			}
			b.ReportMetric(float64(res.Cycles), "cycles")
			b.ReportMetric(float64(res.FalsePositives), "false-pos")
		})
	}
}

// BenchmarkAblationMigratory quantifies the migratory-sharing optimization
// on the read-modify-write workload.
func BenchmarkAblationMigratory(b *testing.B) {
	for _, opt := range []bool{false, true} {
		b.Run(fmt.Sprintf("opt=%t", opt), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.MigratoryOpt = opt
				res = mustRunB(b, cfg, "migratory")
			}
			b.ReportMetric(float64(res.Cycles), "cycles")
			b.ReportMetric(float64(res.MigratoryGrants), "grants")
		})
	}
}

// BenchmarkAblationPiggyback quantifies the UnblockEx piggybacking
// optimization (§3.1): the share of AckO messages that travel for free,
// and the message-count cost of disabling it.
func BenchmarkAblationPiggyback(b *testing.B) {
	for _, w := range []string{"uniform", "scan", "migratory"} {
		b.Run(w, func(b *testing.B) {
			var on, off *Result
			for i := 0; i < b.N; i++ {
				on = mustRunB(b, benchConfig(), w)
				cfg := benchConfig()
				cfg.DisableAckOPiggyback = true
				off = mustRunB(b, cfg, w)
			}
			share := 0.0
			if on.AcksOSent > 0 {
				share = float64(on.PiggybackedAcksO) / float64(on.AcksOSent)
			}
			b.ReportMetric(share, "piggyback-share")
			b.ReportMetric(float64(off.Messages)/float64(on.Messages), "msgs-without-piggyback")
		})
	}
}

// BenchmarkAblationUnorderedNetwork measures FtDirCMP on the adaptive
// (unordered) mesh relative to the ordered one, with and without faults —
// the §2 unordered-network extension.
func BenchmarkAblationUnorderedNetwork(b *testing.B) {
	for _, rate := range []int{0, 2000} {
		b.Run(fmt.Sprintf("rate%d", rate), func(b *testing.B) {
			var ordered, unordered *Result
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.FaultRatePerMillion = rate
				cfg.FaultSeed = 21
				ordered = mustRunB(b, cfg, "uniform")
				cfg.UnorderedNetwork = true
				unordered = mustRunB(b, cfg, "uniform")
			}
			b.ReportMetric(float64(unordered.Cycles)/float64(ordered.Cycles), "unordered-vs-ordered")
		})
	}
}

// BenchmarkSection5TokenComparison quantifies the paper's §5 comparison
// between FtDirCMP and the authors' previous protocol FtTokenCMP: traffic
// (broadcast vs directory indirection) and the hardware cost of recovery
// (per-line token serial table vs per-request numbers in the MSHR).
func BenchmarkSection5TokenComparison(b *testing.B) {
	for _, rate := range []int{0, 1000} {
		b.Run(fmt.Sprintf("rate%d", rate), func(b *testing.B) {
			var dir, tok *Result
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.FaultRatePerMillion = rate
				cfg.FaultSeed = 5
				dir = mustRunB(b, cfg, "uniform")
				cfg.Protocol = FtTokenCMP
				tok = mustRunB(b, cfg, "uniform")
			}
			b.ReportMetric(float64(tok.Messages)/float64(dir.Messages), "token-msg-ratio")
			b.ReportMetric(float64(tok.Cycles)/float64(dir.Cycles), "token-time-ratio")
			b.ReportMetric(float64(tok.TokenSerialPeak), "serial-table-peak")
			b.ReportMetric(float64(tok.TokenRecreations), "recreations")
		})
	}
}

// captureSpanEvents runs cfg's workload with the message feed on and
// returns the raw event stream the span reconstructor consumes (the same
// capture path RunWithInjectorContext uses for Config.RecordSpans).
func captureSpanEvents(b *testing.B, cfg Config, workloadName string) []obs.Event {
	b.Helper()
	w, err := workload.ByName(workloadName)
	if err != nil {
		b.Fatal(err)
	}
	sysCfg := cfg.toInternal()
	sysCfg.Injector = cfg.injector()
	rec := cfg.recorder()
	rec.EnableMessageFeed()
	var events []obs.Event
	rec.SetSink(func(e obs.Event) { events = append(events, e) })
	sysCfg.Obs = rec
	s, err := system.New(sysCfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(w); err != nil {
		b.Fatal(err)
	}
	return events
}

// BenchmarkSpanReconstruction measures span.Build plus span.Aggregate over
// the captured event stream of a faulty run: the post-simulation cost that
// Config.RecordSpans adds.
func BenchmarkSpanReconstruction(b *testing.B) {
	cfg := benchConfig()
	cfg.FaultRatePerMillion = 2000
	cfg.FaultSeed = 9
	events := captureSpanEvents(b, cfg, "uniform")
	topo := cfg.topology()
	b.ResetTimer()
	var spans []*span.Span
	for i := 0; i < b.N; i++ {
		spans = span.Build(events, topo)
		span.Aggregate(spans)
	}
	b.ReportMetric(float64(len(events)), "events")
	b.ReportMetric(float64(len(spans)), "spans")
}

// BenchmarkEventEmission measures the observability hot path per call:
// "off" is disabled instrumentation (a nil recorder, the default when
// neither RecordEvents nor RecordSpans is set — must stay at 0 allocs/op,
// see TestDisabledInstrumentationZeroAlloc), "metrics" the metrics-only
// recorder every run carries, "spans" the recorder with the message feed
// and a streaming sink, as span recording wires it.
func BenchmarkEventEmission(b *testing.B) {
	m := &msg.Message{Type: msg.DataEx, Src: 1, Dst: 6, Addr: 0x2a40, TID: msg.MakeTID(1, 1)}
	hotPath := func(r *obs.Recorder) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.MessageSent(m, 72)
				r.StateChange("l1", 1, m.Addr, m.TID, "I", "M")
				r.TransactionEnd("l1", 1, m.Addr, m.TID)
			}
		}
	}
	b.Run("off", hotPath(nil))
	b.Run("metrics", hotPath(obs.NewRecorder(0)))
	feed := obs.NewRecorder(0)
	feed.EnableMessageFeed()
	sunk := 0
	feed.SetSink(func(obs.Event) { sunk++ })
	b.Run("spans", hotPath(feed))
}

// TestDisabledInstrumentationZeroAlloc pins the zero-cost guarantee the
// benchmarks report: with instrumentation disabled (nil recorder) the
// emission hot path allocates nothing, and a metrics-only recorder without
// the message feed allocates nothing per message either.
func TestDisabledInstrumentationZeroAlloc(t *testing.T) {
	m := &msg.Message{Type: msg.DataEx, Src: 1, Dst: 6, Addr: 0x2a40, TID: msg.MakeTID(1, 1)}
	var off *obs.Recorder
	if n := testing.AllocsPerRun(200, func() {
		off.MessageSent(m, 72)
		off.StateChange("l1", 1, m.Addr, m.TID, "I", "M")
		off.TransactionEnd("l1", 1, m.Addr, m.TID)
	}); n != 0 {
		t.Errorf("nil recorder: %v allocs per emission round, want 0", n)
	}
	rec := obs.NewRecorder(0)
	rec.MessageSent(m, 72) // warm up
	if n := testing.AllocsPerRun(200, func() {
		rec.MessageSent(m, 72)
		rec.StateChange("l1", 1, m.Addr, m.TID, "I", "M")
		rec.TransactionEnd("l1", 1, m.Addr, m.TID)
	}); n != 0 {
		t.Errorf("metrics-only recorder: %v allocs per emission round, want 0", n)
	}
}

// BenchmarkFaultSweepParallelism measures the parallel campaign runner:
// the same 8-point fault sweep at -j 1 (the historical serial loop) and at
// all cores. On a multi-core machine the speedup approaches the core count
// because each rate point is an independent simulation; the results are
// byte-identical either way (TestFaultSweepParallelMatchesSerial).
// BenchmarkInterleaveExploration measures the model checker's throughput
// on the quick gate shape (docs/MODELCHECK.md): the full FtDirCMP one-loss
// exploration per iteration, with distinct states per second as the custom
// metric — each state is one complete re-executed simulation prefix, so
// this tracks the whole evaluate-hash-dedup pipeline.
func BenchmarkInterleaveExploration(b *testing.B) {
	cfg := quickInterleaveConfig()
	states := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Interleave(cfg, InterleaveWorkload, InterleaveOptions{FaultBudget: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Exhausted || len(rep.Violations) != 0 {
			b.Fatalf("exploration regressed: exhausted=%t violations=%d", rep.Exhausted, len(rep.Violations))
		}
		states = rep.StatesExplored
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(states)*float64(b.N)/secs, "states/sec")
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkFaultSweepParallelism(b *testing.B) {
	rates := []int{0, 125, 250, 500, 1000, 2000, 5000, 10000}
	for _, j := range []int{1, 0} {
		name := "serial"
		if j == 0 {
			name = "allcores"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Parallelism = j
				if _, err := FaultSweepContext(context.Background(), cfg, "uniform", rates, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
