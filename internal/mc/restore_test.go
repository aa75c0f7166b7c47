package mc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coverage"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// The explorer expands a state by replaying its prefix once, snapshotting
// the system at the state's choice point and taking each successor
// decision from there, restoring the snapshot before every one after the
// first. These tests check that a restored system is indistinguishable
// from a fresh one that replays the successor's whole schedule.

// continuation picks the decisions that carry a path on to its end once
// the decisions under test are taken: state a restore left wrong may only
// show later on. It also folds every choice point it passes into trail,
// which so sees every message in flight on the way, as the state hashes
// taken there would: a serial number drawn from a space a restore left
// wrong shows in the first message that carries it.
type continuation struct {
	name  string
	skip  int    // lose the droppable choice offered after skip others; -1: lose none
	seen  int    // droppable choices offered so far
	lost  bool   // whether it has lost that message yet
	trail uint64 // the choice points passed
}

func (c *continuation) Choose(now uint64, choices []sim.Choice) sim.Decision {
	c.trail = (c.trail ^ now) * 0x100000001b3
	for _, ch := range choices {
		c.trail = (c.trail ^ ch.Key ^ ch.Info<<1 ^ ch.At<<2) * 0x100000001b3
	}
	if c.skip >= 0 && !c.lost {
		for i, ch := range choices {
			if !ch.CanDrop {
				continue
			}
			if c.seen == c.skip {
				c.lost = true
				return sim.Decision{Index: i, Drop: true}
			}
			c.seen++
		}
	}
	return sim.Decision{}
}

// continuations are the ends every successor is followed to: the default
// delivery order, and one more loss, of the first, second or fourth
// droppable message offered, whose recovery draws on the timers, serial
// numbers and backups the successor left.
func continuations() []*continuation {
	return []*continuation{
		{name: "in order", skip: -1},
		{name: "loss 1", skip: 0},
		{name: "loss 2", skip: 1},
		{name: "loss 4", skip: 3},
	}
}

// runToEnd carries a path on from the choice point it stopped at, by c, to
// its terminal state, and judges that, or to the cycle limit (TokenCMP
// retries a lost request's line forever), as evaluate does.
func runToEnd(in *instance, cfg system.Config, base coverage.Outcome, c *continuation) pathEnd {
	c.seen, c.lost, c.trail = 0, false, 0
	in.eng.SetChooser(c)
	in.eng.Resume()
	err := in.eng.Run(cfg.Limit)
	e := pathEnd{terminal: err == nil, hash: in.stateHash()}
	if err != nil {
		e.kind, e.err = "cycle-limit", err.Error()
	} else {
		e.kind, e.err = judge(in.sys, base)
	}
	e.observe(in)
	return e
}

// forkEnd is where a successor's path stops and, if that is a choice
// point, where a continuation ends it and the choice points it passed.
type forkEnd struct {
	next, end pathEnd
	trail     uint64
}

func forkEndOf(t testing.TB, in *instance, cfg system.Config, base coverage.Outcome, script []Action, c *continuation) forkEnd {
	t.Helper()
	e := forkEnd{next: endOf(t, in, cfg, base, script)}
	if !e.next.terminal {
		e.end = runToEnd(in, cfg, base, c)
		e.trail = c.trail
	}
	return e
}

// checkRestoreMatchesReplay decodes a prefix from data, backs it off to
// its last choice point if it ends terminal, and snapshots a system there.
// Every successor, in the explorer's order, is then taken from a restore
// of that snapshot (the very first straight from it) and must end exactly
// where prefix+successor ends on a fresh system, both at the next choice
// point and at the end of each continuation. Most of those ends are
// terminal states, which Finish drained, scrubbed and judged before the
// next restore. The first successor is taken once more after the last.
func checkRestoreMatchesReplay(t testing.TB, cfg system.Config, w workload.Workload, data []byte) {
	t.Helper()
	p, shape := cfg.Protocol, w.Name()
	base, err := baseline(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	prefix := decodePrefix(t, cfg, w, data)
	forked, err := newInstance(cfg, w, coreOps(cfg, w), nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := evaluate(forked, cfg, base, prefix); err != nil {
			t.Fatal(err)
		}
		if forked.ch.atPoint {
			break
		}
		if len(prefix) == 0 {
			t.Fatalf("%v/%s: the initial state has no choice point", p, shape)
		}
		prefix = prefix[:len(prefix)-1]
		if err := forked.restart(); err != nil {
			t.Fatal(err)
		}
	}
	drops := 0
	for _, a := range prefix {
		if a.Drop {
			drops++
		}
	}
	// A budget one past the prefix's losses offers every droppable choice.
	steps := successors(nil, forked.ch.captured, int32(drops), drops+1)
	if err := forked.sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	wants := make(map[string]forkEnd)
	restores := 0
	for k, s := range append(steps, steps[0]) {
		again := k == len(steps)
		for ci, c := range continuations() {
			if k > 0 || ci > 0 {
				if err := forked.sys.Restore(); err != nil {
					t.Fatal(err)
				}
				restores++
			}
			got := forkEndOf(t, forked, cfg, base, []Action{s.action()}, c)
			key := fmt.Sprint(s, c.name)
			if again {
				if want := wants[fmt.Sprint(steps[0], c.name)]; !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%s: after %d decisions, successor 0 taken again after the last and continued %s ends at\n  %+v\nbut the first time at\n  %+v",
						p, shape, len(prefix), c.name, got, want)
				}
				continue
			}
			fresh, err := newInstance(cfg, w, coreOps(cfg, w), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := forkEndOf(t, fresh, cfg, base, append(prefix[:len(prefix):len(prefix)], s.action()), c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%s: after %d decisions and %d restores, successor %d (%+v) continued %s ends at\n  %+v\nbut replayed %s on a fresh system at\n  %+v",
					p, shape, len(prefix), restores, k, s, c.name, got, c.name, want)
			}
			wants[key] = want
		}
	}
}

// restorePrefixes are the byte prefixes TestRestoreMatchesReplay forks
// from: the initial state, a short prefix, one with losses, one that picks
// the 48th choice modulo the count at each of nine choice points (the
// fuzzer's find that forks FtDirCMP's handoff while an L1 holds a backup
// copy), one that loses the 80th message offered (on deepConfig's uniform
// run, one of FtDirCMP's writeback handshake with memory, so the memory
// controller of every successor draws a serial number to reissue its
// AckO), and three
// that run to the end and so back off to the last choice point before a
// terminal state — one on the default order, one through the protocols'
// recovery from two losses, and one (as in resetPrefixes) through
// FtTokenCMP's token recreation on the handoff line.
var restorePrefixes = [][]byte{
	nil,
	{1, 0, 2},
	{0x81, 3, 1, 0x80, 2, 5, 1, 4, 0, 7, 3, 2},
	[]byte("000000000"),
	append(make([]byte, 79), 0x80),
	make([]byte, 400),
	append([]byte{1, 0x80, 2, 0x81}, make([]byte, 400)...),
	append(make([]byte, 8), append([]byte{0x80}, make([]byte, 400)...)...),
}

// deepConfig is mcConfig with the state the 2-op gate shapes never
// reach: six operations per core on one-set, two-way L1s and L2 banks, so
// lines are evicted by LRU and dirty ones written back to the L2 and on to
// the memory store. MigratoryOpt is on, as in every configuration, and
// deepWorkloads include two counters' worth of migratory sharing for the
// L2's detector to find.
func deepConfig(p system.Protocol) system.Config {
	cfg := mcConfig(p, 6)
	cfg.Params.L1Size, cfg.Params.L1Ways = 2*cfg.Params.LineSize, 2
	cfg.Params.L2Size, cfg.Params.L2Ways = 2*cfg.Params.LineSize, 2
	return cfg
}

var deepWorkloads = []workload.Workload{workload.Migratory(2), workload.Uniform(32, 0.5)}

// restoreInputs are the (configuration, workload) pairs the restore tests
// fork on: the gate shapes on mcConfig, then deepWorkloads on deepConfig,
// for every protocol.
func restoreInputs(t testing.TB) (cfgs []system.Config, ws []workload.Workload) {
	for _, p := range resetProtocols {
		for _, shape := range resetShapes {
			w, err := workload.ByName(shape)
			if err != nil {
				t.Fatal(err)
			}
			cfgs, ws = append(cfgs, mcConfig(p, 2)), append(ws, w)
		}
		for _, w := range deepWorkloads {
			cfgs, ws = append(cfgs, deepConfig(p)), append(ws, w)
		}
	}
	return cfgs, ws
}

func TestRestoreMatchesReplay(t *testing.T) {
	cfgs, ws := restoreInputs(t)
	for i, cfg := range cfgs {
		t.Run(fmt.Sprintf("%v/%s/ops=%d", cfg.Protocol, ws[i].Name(), cfg.OpsPerCore), func(t *testing.T) {
			for _, data := range restorePrefixes {
				checkRestoreMatchesReplay(t, cfg, ws[i], data)
			}
		})
	}
}

func FuzzRestoreMatchesReplay(f *testing.F) {
	cfgs, ws := restoreInputs(f)
	for i, data := range restorePrefixes {
		f.Add(uint8(i), data)
		f.Add(uint8(len(cfgs)-1-i), data)
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		// Long prefixes only repeat the drained tail; the cap keeps an
		// execution fast enough for the fuzzer.
		if len(data) > 256 {
			data = data[:256]
		}
		i := int(sel) % len(cfgs)
		checkRestoreMatchesReplay(t, cfgs[i], ws[i], data)
	})
}
