package mc

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/coverage"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// The explorer reaches every path's initial state by System.Reset on a
// system an earlier path left mid-run. These tests check that a reset
// system is indistinguishable from a fresh one: after any first path, a
// second path run on the reset system must end exactly where it ends on a
// system.New one.

// resetShapes are the gate shapes, resetProtocols every protocol.
var (
	resetShapes    = []string{"handoff", "migratory", "producer", "uniform"}
	resetProtocols = []system.Protocol{system.DirCMP, system.FtDirCMP, system.TokenCMP, system.FtTokenCMP}
)

// maxResetDrops bounds the losses a decoded prefix composes.
const maxResetDrops = 2

// byteChooser decodes a decision prefix from bytes against the live
// choice points: each byte picks choice b%n (b&0x80 turns it into a loss,
// within maxResetDrops); the engine halts when the bytes run out.
type byteChooser struct {
	data   []byte
	drops  int
	script []Action
}

func (c *byteChooser) Choose(_ uint64, choices []sim.Choice) sim.Decision {
	if len(c.data) == 0 {
		return sim.Decision{Halt: true}
	}
	b := c.data[0]
	c.data = c.data[1:]
	a := Action{Choice: int(b&0x7f) % len(choices)}
	if b&0x80 != 0 && choices[a.Choice].CanDrop && c.drops < maxResetDrops {
		a.Drop = true
		c.drops++
	}
	c.script = append(c.script, a)
	return sim.Decision{Index: a.Choice, Drop: a.Drop}
}

// decodePrefix turns bytes into the schedule they select on a fresh
// system.
func decodePrefix(t testing.TB, cfg system.Config, w workload.Workload, data []byte) []Action {
	t.Helper()
	in, err := newInstance(cfg, w, coreOps(cfg, w), nil)
	if err != nil {
		t.Fatal(err)
	}
	ch := &byteChooser{data: data}
	in.eng.SetChooser(ch)
	if err := in.eng.Run(cfg.Limit); err != nil {
		t.Fatal(err)
	}
	return ch.script
}

// pathEnd is everything observable where a path stops: the evaluation
// itself (state hash, choices at the halt point, terminal verdict) plus
// the memory image, the clock, the event counts and the statistics.
type pathEnd struct {
	terminal bool
	hash     uint64
	choices  []sim.Choice
	kind     string
	err      string
	memHash  uint64
	now      uint64
	events   uint64
	pending  int
	flight   [2]uint64 // the network's in-flight sum and count
	stats    string
}

func endOf(t testing.TB, in *instance, cfg system.Config, base coverage.Outcome, script []Action) pathEnd {
	t.Helper()
	r, err := evaluate(in, cfg, base, script)
	if err != nil {
		t.Fatal(err)
	}
	e := pathEnd{terminal: r.terminal, hash: r.hash, choices: slices.Clone(r.choices)}
	if r.violation != nil {
		e.kind, e.err = r.violation.Kind, r.violation.Err
	}
	e.observe(in)
	return e
}

// observe records the rest of what is observable where a path stops.
func (e *pathEnd) observe(in *instance) {
	e.memHash = in.sys.MemoryImageHash()
	e.now = in.eng.Now()
	e.events = in.eng.EventsExecuted()
	e.pending = in.eng.Pending()
	e.stats = in.sys.Stats().Report()
	sum, count := in.net.InFlight()
	e.flight = [2]uint64{sum, uint64(count)}
}

// checkResetMatchesFresh runs the first prefix on one system, resets it,
// runs the second, and compares with the second run on a fresh system.
func checkResetMatchesFresh(t testing.TB, p system.Protocol, shape string, first, second []byte) {
	t.Helper()
	cfg := mcConfig(p, 2)
	w, err := workload.ByName(shape)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseline(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	s1 := decodePrefix(t, cfg, w, first)
	s2 := decodePrefix(t, cfg, w, second)

	// The reused instance runs on lists built before either path, as an
	// exploration's instances do; the fresh one builds its own.
	shared := coreOps(cfg, w)
	reused, err := newInstance(cfg, w, shared, nil)
	if err != nil {
		t.Fatal(err)
	}
	endOf(t, reused, cfg, base, s1)
	if err := reused.restart(); err != nil {
		t.Fatal(err)
	}
	got := endOf(t, reused, cfg, base, s2)

	fresh, err := newInstance(cfg, w, coreOps(cfg, w), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := endOf(t, fresh, cfg, base, s2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v/%s: after %d decisions and a reset, %d decisions end at\n  %+v\nbut on a fresh system at\n  %+v",
			p, shape, len(s1), len(s2), got, want)
	}
	if !reflect.DeepEqual(shared, coreOps(cfg, w)) {
		t.Fatalf("%v/%s: running two paths changed the shared operation lists", p, shape)
	}
}

// resetPrefixes are the byte prefixes TestResetMatchesFresh pairs: none
// (the initial state), a short one, one with losses, one long enough to
// reach a terminal state on every shape, and two that lose messages and
// then run to the end, through the protocols' recovery. The last loses
// the message whose loss makes FtTokenCMP recreate the handoff line's
// tokens, which advances the token serial numbers.
var resetPrefixes = [][]byte{
	nil,
	{1, 0, 2},
	{0x81, 3, 1, 0x80, 2, 5, 1, 4, 0, 7, 3, 2},
	make([]byte, 400),
	append([]byte{1, 0x80, 2, 0x81}, make([]byte, 400)...),
	append(make([]byte, 8), append([]byte{0x80}, make([]byte, 400)...)...),
}

func TestResetMatchesFresh(t *testing.T) {
	for _, p := range resetProtocols {
		for _, shape := range resetShapes {
			t.Run(fmt.Sprintf("%v/%s", p, shape), func(t *testing.T) {
				for _, first := range resetPrefixes[1:] {
					for _, second := range resetPrefixes {
						checkResetMatchesFresh(t, p, shape, first, second)
					}
				}
			})
		}
	}
}

func FuzzResetMatchesFresh(f *testing.F) {
	for i, first := range resetPrefixes[1:] {
		for j, second := range resetPrefixes {
			f.Add(uint8(i+j), uint8(i), first, second)
		}
	}
	f.Fuzz(func(t *testing.T, protoSel, shapeSel uint8, first, second []byte) {
		// Long prefixes only repeat the drained tail; the cap keeps an
		// execution fast enough for the fuzzer.
		if len(first) > 256 {
			first = first[:256]
		}
		if len(second) > 256 {
			second = second[:256]
		}
		p := resetProtocols[int(protoSel)%len(resetProtocols)]
		shape := resetShapes[int(shapeSel)%len(resetShapes)]
		checkResetMatchesFresh(t, p, shape, first, second)
	})
}
