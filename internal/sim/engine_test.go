package sim

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []uint64
	record := func(_ any, tick uint64) { got = append(got, tick) }
	for _, d := range []uint64{5, 1, 9, 3, 3, 0, 7} {
		e.ScheduleCall(d, record, nil, d)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 7 {
		t.Fatalf("executed %d events, want 7", len(got))
	}
}

func TestEngineFIFOWithinSameCycle(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(_ any, tick uint64) { got = append(got, int(tick)) }
	for i := 0; i < 10; i++ {
		e.ScheduleCall(4, record, nil, uint64(i))
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events reordered: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []uint64
	stamp := func(any, uint64) { times = append(times, e.Now()) }
	e.ScheduleCall(2, func(any, uint64) {
		times = append(times, e.Now())
		e.ScheduleCall(3, stamp, nil, 0)
		e.ScheduleCall(0, stamp, nil, 0)
	}, nil, 0)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []uint64{2, 2, 5}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	ran := false
	e.ScheduleCall(100, func(any, uint64) { ran = true }, nil, 0)
	err := e.Run(50)
	if !errors.Is(err, ErrLimitReached) {
		t.Fatalf("err = %v, want ErrLimitReached", err)
	}
	if ran {
		t.Fatal("event past the limit was executed")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Now() != 100 {
		t.Fatalf("ran=%t now=%d", ran, e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.ScheduleCall(uint64(i), func(any, uint64) { count++ }, nil, 0)
	}
	ok := e.RunUntil(0, func() bool { return count >= 5 })
	if !ok || count != 5 {
		t.Fatalf("ok=%t count=%d", ok, count)
	}
	// The rest still runs afterwards.
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestEngineRunUntilNeverSatisfied(t *testing.T) {
	e := NewEngine()
	e.ScheduleCall(1, nop, nil, 0)
	if ok := e.RunUntil(0, func() bool { return false }); ok {
		t.Fatal("predicate cannot be satisfied")
	}
}

// nop is a handler that does nothing.
func nop(any, uint64) {}

func TestScheduleAtPanicsOnPast(t *testing.T) {
	e := NewEngine()
	e.ScheduleCall(10, nop, nil, 0)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for past scheduling")
		}
	}()
	e.ScheduleCallAt(5, nop, nil, 0)
}

func TestEngineEventsExecuted(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.ScheduleCall(uint64(i), nop, nil, 0)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.EventsExecuted() != 7 {
		t.Fatalf("events = %d, want 7", e.EventsExecuted())
	}
}

// TestEngineOrderProperty: for any random set of delays, execution order is
// a stable sort by time.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		type rec struct {
			at  uint64
			seq int
		}
		var got []rec
		record := func(_ any, tick uint64) { got = append(got, rec{e.Now(), int(tick)}) }
		for i, d := range delays {
			e.ScheduleCall(uint64(d%1000), record, nil, uint64(i))
		}
		if err := e.Run(0); err != nil {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerFires(t *testing.T) {
	e := NewEngine()
	var tm Timer
	fired := false
	tm.Start(e, 10, func(any) { fired = true }, nil)
	if !tm.Armed() {
		t.Fatal("timer not armed")
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired || e.Now() != 10 {
		t.Fatalf("fired=%t now=%d", fired, e.Now())
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerStopCancels(t *testing.T) {
	e := NewEngine()
	var tm Timer
	tm.Start(e, 10, func(any) { t.Fatal("stopped timer fired") }, nil)
	e.ScheduleCall(5, func(arg any, _ uint64) { arg.(*Timer).Stop() }, &tm, 0)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestTimerRestartSupersedes(t *testing.T) {
	e := NewEngine()
	var tm Timer
	var fired []string
	record := func(arg any) { fired = append(fired, arg.(string)) }
	tm.Start(e, 10, record, "first")
	e.ScheduleCall(5, func(any, uint64) { tm.Start(e, 10, record, "second") }, nil, 0)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "second" {
		t.Fatalf("fired = %v, want [second]", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("now = %d, want 15", e.Now())
	}
}

func TestTimerRepeatedRestart(t *testing.T) {
	e := NewEngine()
	var tm Timer
	count := 0
	var fire func(any)
	fire = func(any) {
		if count++; count < 5 {
			tm.Start(e, 7, fire, nil)
		}
	}
	tm.Start(e, 7, fire, nil)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 5 || e.Now() != 35 {
		t.Fatalf("count=%d now=%d", count, e.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/1000 times", same)
	}
}

func TestRNGFork(t *testing.T) {
	parent := NewRNG(7)
	a := parent.Fork(1)
	parent = NewRNG(7)
	b := parent.Fork(2)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("forked streams with different salts correlate")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("Bool(0.25) hit fraction %v", frac)
	}
}

// engineMix draws n delays in the mix a Table-4 FtDirCMP sweep schedules:
// about 21% at 2–3 cycles, 70% at 4–7, 0.6% at 8–255 (memory and far
// hops), and the rest Table 3 timer re-arms at 1,024–4,095 cycles.
func engineMix(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]uint64, n)
	for i := range out {
		switch p := rng.Intn(1000); {
		case p < 210:
			out[i] = 2 + uint64(rng.Intn(2))
		case p < 910:
			out[i] = 4 + uint64(rng.Intn(4))
		case p < 916:
			out[i] = 8 + uint64(rng.Intn(248))
		default:
			out[i] = 1024 + uint64(rng.Intn(3072))
		}
	}
	return out
}

// BenchmarkEngineScheduleRun: one scheduled event (or timer re-arm) and
// one step per iteration, in the measured delay mix, with 96 armed timers
// standing in for the ~95 events FtDirCMP keeps queued on average.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	mix := engineMix(4096)
	call := func(any, uint64) {}
	fire := func(any) {}
	timers := make([]Timer, 96)
	for i := range timers {
		timers[i].Start(e, mix[i]%3072+1024, fire, nil)
	}
	for _, d := range mix[:32] {
		e.ScheduleCall(d%8, call, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := mix[i&4095]; d >= 1024 {
			timers[i%len(timers)].Start(e, d, fire, nil)
		} else {
			e.ScheduleCall(d, call, nil, 0)
		}
		e.Step()
	}
}

// BenchmarkTimerRestartStop: re-arming and stopping Table 3 timers, three
// re-arms per Stop, with no event firing in between — the cost of
// superseding an armed firing, compaction of the dead events included.
func BenchmarkTimerRestartStop(b *testing.B) {
	e := NewEngine()
	mix := engineMix(4096)
	fire := func(any) {}
	timers := make([]Timer, 96)
	for i := range timers {
		timers[i].Start(e, 1024, fire, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := &timers[i%len(timers)]
		if i%4 == 3 {
			tm.Stop()
		} else {
			tm.Start(e, mix[i&4095]%3072+1024, fire, nil)
		}
	}
}

func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// TestEngineResetMatchesNew: an engine reset while events sit in the ring,
// in the overflow heap and behind a halting chooser fires a new schedule
// exactly as a new engine does, and keeps its slab.
func TestEngineResetMatchesNew(t *testing.T) {
	trace := func(e *Engine) []uint64 {
		var got []uint64
		record := func(_ any, tick uint64) { got = append(got, e.Now()<<8|tick) }
		for i, d := range []uint64{3, 0, ringSize + 5, 3, 4096, 1} {
			e.ScheduleCall(d, record, nil, uint64(i))
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return append(got, e.EventsExecuted(), uint64(e.Pending()))
	}
	want := trace(NewEngine())

	e := NewEngine()
	var tm Timer
	tm.Start(e, 2*ringSize, func(any) { t.Error("a timer armed before Reset fired after it") }, nil)
	for _, d := range []uint64{0, 7, ringSize, 3 * ringSize} {
		e.ScheduleCall(d, nop, nil, 0)
	}
	e.ScheduleChoiceAt(1, nop, nil, nil, 0, 1, 0)
	e.SetChooser(haltChooser{})
	if err := e.Run(0); err != nil || !e.Halted() || e.Pending() == 0 {
		t.Fatalf("setup: Run = %v, halted %v, pending %d; want a halted engine with events queued", err, e.Halted(), e.Pending())
	}
	tm.Stop()
	slab := cap(e.slab)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Halted() || e.EventsExecuted() != 0 || cap(e.slab) != slab {
		t.Fatalf("after Reset: now %d, pending %d, halted %v, events %d, slab cap %d (was %d)",
			e.Now(), e.Pending(), e.Halted(), e.EventsExecuted(), cap(e.slab), slab)
	}
	if got := trace(e); !slices.Equal(got, want) {
		t.Fatalf("reset engine fired %v, a new one %v", got, want)
	}
}

type haltChooser struct{}

func (haltChooser) Choose(uint64, []Choice) Decision { return Decision{Halt: true} }
