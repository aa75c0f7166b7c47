package coverage

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/obs"
)

// fakeStream is a deterministic synthetic message sequence.
func fakeStream() []msg.Type {
	return []msg.Type{
		msg.GetX, msg.Data, msg.UnblockEx,
		msg.GetS, msg.Data, msg.Unblock,
		msg.GetX, msg.Data, msg.UnblockEx,
		msg.GetX, msg.Data, msg.UnblockEx,
	}
}

// fakeProtocol simulates a protocol over a synthetic message stream.
// Message i travels from node i%4 to node (i+1)%4 on line i%8. A dropped
// message of a fatal type fails the run (Err set), one of a diverging type
// ends it cleanly with a different memory image, and any other drop
// recovers with a fixed latency. A tile-death injector is armed with its
// tile's node and declares the death when it fires.
type fakeProtocol struct {
	stream         []msg.Type
	fatal, diverge map[msg.Type]bool
}

// fakeRun is fakeProtocol over fakeStream with one fatal type (0: none).
func fakeRun(failOn msg.Type) RunFunc {
	return fakeProtocol{stream: fakeStream(), fatal: map[msg.Type]bool{failOn: true}}.run
}

func (p fakeProtocol) run(inj fault.Injector) Outcome {
	td, _ := inj.(*fault.TileDeath)
	if td != nil {
		td.Arm([]msg.NodeID{msg.NodeID(td.Tile())}, nil)
	}
	out := Outcome{Cycles: 1000}
	diverged := false
	for i, t := range p.stream {
		m := &msg.Message{Type: t, Src: msg.NodeID(i % 4), Dst: msg.NodeID((i + 1) % 4), Addr: msg.Addr(i % 8 * 64)}
		if !inj.Drop(m) {
			continue
		}
		out.FaultsInjected++
		switch {
		case p.fatal[t]:
			out.Err = "system: deadlock — stuck\n  detail line"
		case p.diverge[t]:
			diverged = true
		default:
			out.FaultsRecovered++
			out.RecoveryLatencyMax = 2000 + uint64(i)
			out.Timeouts[obs.TimeoutLostRequest]++
		}
	}
	if td != nil && td.Fired() {
		out.DeathDeclared = true
		out.ReconstructLatency = 100 + td.Dropped()
		out.LinesUnrecoverable = int(td.Dropped() % 3)
	}
	if out.Err == "" {
		out.MemHash, out.Image = 0xfeed, map[msg.Addr]uint64{0: 1}
		if diverged {
			out.MemHash, out.Image = 0xbad, map[msg.Addr]uint64{0: 2}
		}
	}
	return out
}

func TestCensusAndEnumerate(t *testing.T) {
	c := NewCensus()
	run := fakeRun(0)
	if out := run(c); out.Err != "" {
		t.Fatal(out.Err)
	}
	if c.Total() != 12 {
		t.Fatalf("Total = %d, want 12", c.Total())
	}
	if c.Count(msg.GetX) != 3 || c.Count(msg.Data) != 4 || c.Count(msg.GetS) != 1 {
		t.Fatalf("counts: GetX=%d Data=%d GetS=%d", c.Count(msg.GetX), c.Count(msg.Data), c.Count(msg.GetS))
	}
	if c.Dropped() != 0 {
		t.Fatal("census dropped something")
	}

	slots := EnumerateSlots(c, 0)
	if len(slots) != 12 {
		t.Fatalf("exhaustive slots = %d, want 12", len(slots))
	}
	// Type order, then occurrence order.
	for i := 1; i < len(slots); i++ {
		a, b := slots[i-1], slots[i]
		if a.Type > b.Type || (a.Type == b.Type && a.Nth >= b.Nth) {
			t.Fatalf("slots out of order at %d: %v then %v", i, a, b)
		}
	}

	capped := EnumerateSlots(c, 2)
	byType := map[msg.Type]int{}
	for _, s := range capped {
		byType[s.Type]++
		if s.Nth < 1 || s.Nth > c.Count(s.Type) {
			t.Fatalf("sampled slot out of range: %v (count %d)", s, c.Count(s.Type))
		}
	}
	for ty, n := range byType {
		if n > 2 {
			t.Fatalf("type %v tested %d slots, cap 2", ty, n)
		}
	}
	// The first occurrence of each type is always included.
	for _, ty := range c.Types() {
		found := false
		for _, s := range capped {
			if s.Type == ty && s.Nth == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("type %v: first occurrence not sampled", ty)
		}
	}
}

func TestRunFullCoverage(t *testing.T) {
	rep, err := RunContext(context.Background(), fakeRun(0), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullCoverage() {
		t.Fatalf("not full coverage: %+v", rep)
	}
	if rep.TotalSlots != 12 || rep.Recovered != 12 || rep.TotalFailures != 0 {
		t.Fatalf("slots=%d recovered=%d failures=%d", rep.TotalSlots, rep.Recovered, rep.TotalFailures)
	}
	if rep.BaselineMemHash != 0xfeed || rep.BaselineCycles != 1000 {
		t.Fatalf("baseline: %+v", rep)
	}
	var getx *TypeRow
	for i := range rep.Rows {
		if rep.Rows[i].Type == "GetX" {
			getx = &rep.Rows[i]
		}
	}
	if getx == nil || getx.Slots != 3 || getx.Recovered != 3 || getx.LostRequest != 3 {
		t.Fatalf("GetX row: %+v", getx)
	}
	if getx.LatencyMin == 0 || getx.LatencyMax < getx.LatencyMin || getx.LatencyMean == 0 {
		t.Fatalf("GetX latency aggregates: %+v", getx)
	}
}

func TestRunReportsFailures(t *testing.T) {
	rep, err := RunContext(context.Background(), fakeRun(msg.Data), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullCoverage() {
		t.Fatal("full coverage despite Data drops being fatal")
	}
	if rep.TotalFailures != 4 || len(rep.Failures) != 4 {
		t.Fatalf("failures = %d (%d listed), want 4", rep.TotalFailures, len(rep.Failures))
	}
	for _, f := range rep.Failures {
		if f.Type != "Data" {
			t.Errorf("unexpected failing type %q", f.Type)
		}
		if strings.Contains(f.Err, "\n") || !strings.Contains(f.Err, "deadlock") {
			t.Errorf("failure error not shortened: %q", f.Err)
		}
	}
	if rep.Recovered != 8 {
		t.Fatalf("recovered = %d, want 8", rep.Recovered)
	}
}

// TestRunDeterministicAcrossParallelism: the report (table and JSON) is
// byte-identical at every parallelism level.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	render := func(par int) (string, string) {
		rep, err := RunContext(context.Background(), fakeRun(msg.Data), Options{
			Parallelism: par, DoubleFaultSamples: 4, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		var js strings.Builder
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return rep.Table(), js.String()
	}
	t1, j1 := render(1)
	t4, j4 := render(4)
	if t1 != t4 {
		t.Errorf("table differs across parallelism:\n%s\nvs\n%s", t1, t4)
	}
	if j1 != j4 {
		t.Errorf("JSON differs across parallelism:\n%s\nvs\n%s", j1, j4)
	}
}

func TestDoubleFaultSampling(t *testing.T) {
	rep, err := RunContext(context.Background(), fakeRun(0), Options{
		Parallelism: 1, DoubleFaultSamples: 6, DoubleFaultWindow: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DoubleFaults) != 6 {
		t.Fatalf("double faults = %d, want 6", len(rep.DoubleFaults))
	}
	modes := map[string]int{}
	for _, df := range rep.DoubleFaults {
		modes[df.Mode]++
		if df.Mode == "window" && (df.After < 1 || df.After > 4) {
			t.Errorf("window offset out of range: %+v", df)
		}
		if !df.Recovered {
			t.Errorf("fake protocol failed a double fault: %+v", df)
		}
	}
	if modes["reissue"] != 3 || modes["window"] != 3 {
		t.Fatalf("modes = %v, want 3 reissue / 3 window", modes)
	}
	if rep.DoubleFaultRecovered != 6 {
		t.Fatalf("DoubleFaultRecovered = %d", rep.DoubleFaultRecovered)
	}
}

func TestBaselineFailureIsFatal(t *testing.T) {
	failing := func(inj fault.Injector) Outcome { return Outcome{Err: "boom"} }
	if _, err := RunContext(context.Background(), failing, Options{}); err == nil {
		t.Fatal("baseline failure not reported")
	}
	empty := func(inj fault.Injector) Outcome { return Outcome{MemHash: 1} }
	if _, err := RunContext(context.Background(), empty, Options{}); err == nil {
		t.Fatal("empty fault space not reported")
	}
}

func TestTableWarnsOnSampling(t *testing.T) {
	rep, err := RunContext(context.Background(), fakeRun(0), Options{Parallelism: 1, MaxSlotsPerType: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullCoverage() {
		t.Fatal("sampled campaign must not claim full coverage")
	}
	tbl := rep.Table()
	if !strings.Contains(tbl, "* sampled") || !strings.Contains(tbl, "Data*") {
		t.Errorf("sampling not flagged in table:\n%s", tbl)
	}
}

// TestProgressCoversWholeCampaign: progress announces one total, slot runs
// plus double-fault samples, and its last call is (total, total).
func TestProgressCoversWholeCampaign(t *testing.T) {
	for _, par := range []int{1, 4} {
		var calls [][2]int
		rep, err := RunContext(context.Background(), fakeRun(0), Options{
			Parallelism: par, DoubleFaultSamples: 4, Seed: 5,
			Progress: func(done, total int) { calls = append(calls, [2]int{done, total}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		total := rep.SlotsTested + len(rep.DoubleFaults)
		if len(calls) != total {
			t.Fatalf("parallelism %d: %d progress calls, want %d", par, len(calls), total)
		}
		for _, c := range calls {
			if c[1] != total {
				t.Fatalf("parallelism %d: progress total %d, want %d throughout", par, c[1], total)
			}
		}
		if last := calls[len(calls)-1]; last != [2]int{total, total} {
			t.Fatalf("parallelism %d: last progress call %v, want (%d, %d)", par, last, total, total)
		}
	}
}

// TestCancelledDoubleFaultPhase: a campaign cancelled while its
// double-fault samples run returns the cancellation error and no report.
func TestCancelledDoubleFaultPhase(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func(inj fault.Injector) Outcome {
		// Only a double-fault injector describes a second drop.
		if strings.Contains(inj.Description(), " and ") {
			cancel()
		}
		if ctx.Err() != nil {
			return Outcome{Err: "system: run cancelled"}
		}
		return fakeRun(0)(inj)
	}
	rep, err := RunContext(ctx, run, Options{Parallelism: 1, DoubleFaultSamples: 4, Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if rep != nil {
		t.Fatalf("cancelled campaign returned a report: %+v", rep.DoubleFaults)
	}
}

// TestDivergedDoubleFaultSaysWhy: a double-fault run that finishes without
// error but with a different memory image carries the divergence as Err.
func TestDivergedDoubleFaultSaysWhy(t *testing.T) {
	all := map[msg.Type]bool{}
	for _, ty := range fakeStream() {
		all[ty] = true
	}
	run := fakeProtocol{stream: fakeStream(), diverge: all}.run
	rep, err := RunContext(context.Background(), run, Options{Parallelism: 1, DoubleFaultSamples: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DoubleFaultRecovered != 0 || len(rep.DoubleFaults) != 4 {
		t.Fatalf("%d of %d double faults recovered, want 0 of 4", rep.DoubleFaultRecovered, len(rep.DoubleFaults))
	}
	for _, df := range rep.DoubleFaults {
		if !strings.Contains(df.Err, "final memory image diverged") {
			t.Errorf("diverged double fault %s #%d (%s): Err = %q", df.Type, df.Nth, df.Mode, df.Err)
		}
	}
}
