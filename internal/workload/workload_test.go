package workload

import (
	"testing"

	"repro/internal/sim"
)

func collect(w Workload, core, cores, ops int, seed uint64) []Op {
	return w.Ops(core, cores, ops, sim.NewRNG(seed))
}

func TestSuiteNamesUniqueAndResolvable(t *testing.T) {
	seen := make(map[string]bool)
	for _, w := range Suite() {
		if seen[w.Name()] {
			t.Fatalf("duplicate workload name %q", w.Name())
		}
		seen[w.Name()] = true
		got, err := ByName(w.Name())
		if err != nil || got.Name() != w.Name() {
			t.Fatalf("ByName(%q): %v", w.Name(), err)
		}
	}
	if _, err := ByName("does-not-exist"); err == nil {
		t.Fatal("unknown name resolved")
	}
}

func TestStreamsProduceExactlyOps(t *testing.T) {
	for _, w := range Suite() {
		for core := 0; core < 4; core++ {
			ops := collect(w, core, 4, 137, 5)
			if len(ops) != 137 {
				t.Errorf("%s core %d produced %d ops, want 137", w.Name(), core, len(ops))
			}
		}
	}
}

func TestStreamsDeterministic(t *testing.T) {
	for _, w := range Suite() {
		a := collect(w, 1, 4, 100, 9)
		b := collect(w, 1, 4, 100, 9)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s not deterministic at op %d", w.Name(), i)
			}
		}
	}
}

func TestUniformWriteFraction(t *testing.T) {
	ops := collect(Uniform(256, 0.3), 0, 4, 20000, 1)
	writes := 0
	for _, op := range ops {
		if op.Write {
			writes++
		}
		if op.Line >= 256 {
			t.Fatalf("line %d out of range", op.Line)
		}
	}
	frac := float64(writes) / float64(len(ops))
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("write fraction %v, want ~0.3", frac)
	}
}

func TestMigratoryReadThenWritePairs(t *testing.T) {
	ops := collect(Migratory(32), 2, 4, 100, 3)
	for i := 0; i+1 < len(ops); i += 2 {
		r, w := ops[i], ops[i+1]
		if r.Write || !w.Write || r.Line != w.Line {
			t.Fatalf("ops %d,%d not a read-modify-write pair: %+v %+v", i, i+1, r, w)
		}
	}
}

func TestProducerRoles(t *testing.T) {
	prod := collect(Producer(7), 0, 4, 64, 1)
	cons := collect(Producer(7), 1, 4, 64, 1)
	for i, op := range prod {
		if !op.Write {
			t.Fatalf("producer op %d is a read", i)
		}
	}
	for i, op := range cons {
		if op.Write {
			t.Fatalf("consumer op %d is a write", i)
		}
	}
	// Both touch the same block.
	if prod[0].Line != cons[0].Line {
		t.Fatal("pair does not share a block")
	}
	// Different pairs touch different blocks.
	other := collect(Producer(7), 2, 4, 64, 1)
	if other[0].Line == prod[0].Line {
		t.Fatal("different pairs share a block")
	}
}

func TestHotspotSkew(t *testing.T) {
	ops := collect(Hotspot(8, 1024), 0, 4, 50000, 2)
	hot := 0
	for _, op := range ops {
		if op.Line < 8 {
			hot++
		}
	}
	frac := float64(hot) / float64(len(ops))
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("hot fraction %v, want ~0.2", frac)
	}
}

func TestPrivateMostlyDisjoint(t *testing.T) {
	const perCore = 64
	a := collect(Private(perCore), 0, 4, 10000, 4)
	own := 0
	for _, op := range a {
		if op.Line < perCore {
			own++
		}
	}
	if frac := float64(own) / float64(len(a)); frac < 0.95 {
		t.Fatalf("core 0 touched its own lines only %.2f of the time", frac)
	}
}

func TestLocksAlternateAcquireRelease(t *testing.T) {
	ops := collect(Locks(4, 2), 0, 4, 1000, 6)
	lockWrites := 0
	for _, op := range ops {
		if op.Line < 4 && op.Write {
			lockWrites++
		}
	}
	if lockWrites < len(ops)/5 {
		t.Fatalf("only %d lock writes in %d ops", lockWrites, len(ops))
	}
}

func TestScanSequential(t *testing.T) {
	ops := collect(Scan(4096), 0, 4, 100, 7)
	for i := 2; i < len(ops); i += 2 {
		if ops[i].Line != ops[i-2].Line+1 {
			t.Fatalf("scan not sequential at %d: %d then %d", i, ops[i-2].Line, ops[i].Line)
		}
	}
	for i := 0; i < len(ops)-1; i += 2 {
		if ops[i].Write || !ops[i+1].Write {
			t.Fatalf("scan pattern should read then write each line")
		}
	}
}

func TestDifferentCoresDifferentStreams(t *testing.T) {
	a := collect(Uniform(1024, 0.5), 0, 4, 200, 1)
	b := collect(Uniform(1024, 0.5), 1, 4, 200, 2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/4 {
		t.Fatalf("streams correlate: %d/%d identical ops", same, len(a))
	}
}
