// Package workload provides the synthetic memory-access kernels that stand
// in for the paper's benchmark suite. Each workload produces one
// deterministic operation list per core; the lists span the sharing
// patterns that drive directory-protocol traffic (wide read sharing,
// migratory read-modify-write, producer/consumer handoff, contention,
// private working sets and streaming).
package workload

import (
	"fmt"

	"repro/internal/sim"
)

// Op is one core memory operation. Line is a line index; the system maps it
// to an address. The value written is chosen by the core so that every
// write in a run is unique (for data-integrity checking).
type Op struct {
	Line  uint64
	Write bool
}

// Workload builds per-core operation lists.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Ops returns core's operations in issue order. rng is a per-core
	// deterministic stream; cores and ops describe the run shape. The
	// caller must treat the list as read-only: a list may be shared by
	// every run of one exploration.
	Ops(core, cores, ops int, rng *sim.RNG) []Op
}

// PerCore builds every core's operation list for a run seeded with seed.
// It is the one place that derives the per-core RNGs: each core's stream
// is forked from one master RNG in core order, and Fork advances the
// master, so every caller must go through here to see the lists a run
// executes. The per-core RNGs share one backing array.
func PerCore(w Workload, cores, ops int, seed uint64) [][]Op {
	master := sim.NewRNG(seed)
	rngs := make([]sim.RNG, cores)
	out := make([][]Op, cores)
	for core := range out {
		rngs[core] = *master.Fork(uint64(core) + 1)
		out[core] = w.Ops(core, cores, ops, &rngs[core])
	}
	return out
}

// funcWorkload adapts a generator function.
type funcWorkload struct {
	name string
	gen  func(core, cores, ops int, rng *sim.RNG) []Op
}

func (w *funcWorkload) Name() string { return w.name }

func (w *funcWorkload) Ops(core, cores, ops int, rng *sim.RNG) []Op {
	return w.gen(core, cores, ops, rng)
}

// Uniform accesses a shared array of lines uniformly at random with the
// given write fraction. It produces the paper's "general mix" behaviour:
// read and write misses, invalidations and cache-to-cache transfers.
func Uniform(lines int, writeFrac float64) Workload {
	return &funcWorkload{
		name: "uniform",
		gen: func(core, cores, ops int, rng *sim.RNG) []Op {
			out := make([]Op, ops)
			for i := range out {
				out[i] = Op{
					Line:  uint64(rng.Intn(lines)),
					Write: rng.Bool(writeFrac),
				}
			}
			return out
		},
	}
}

// ReadMostly is Uniform with a 5% write fraction: wide sharing, mostly GetS
// traffic, occasional invalidation bursts.
func ReadMostly(lines int) Workload {
	w := Uniform(lines, 0.05)
	return &funcWorkload{name: "readmostly", gen: w.(*funcWorkload).gen}
}

// Migratory implements read-modify-write sharing over a set of counters:
// each core repeatedly picks a counter, reads it and writes it. Ownership
// migrates core to core, exercising the migratory-sharing optimization and
// the ownership-transfer handshake of FtDirCMP.
func Migratory(counters int) Workload {
	return &funcWorkload{
		name: "migratory",
		gen: func(core, cores, ops int, rng *sim.RNG) []Op {
			out := make([]Op, 0, ops)
			for len(out) < ops {
				line := uint64(rng.Intn(counters))
				out = append(out, Op{Line: line})
				if len(out) < ops {
					out = append(out, Op{Line: line, Write: true})
				}
			}
			return out
		},
	}
}

// Producer pairs cores: even cores write blocks of lines and a flag line;
// odd cores read the flag and then the block. This is the Figure 1
// cache-to-cache ownership-change transaction in a loop.
func Producer(blockLines int) Workload {
	return &funcWorkload{
		name: "producer",
		gen: func(core, cores, ops int, rng *sim.RNG) []Op {
			pair := core / 2
			base := uint64(pair) * uint64(blockLines+1)
			flag := base + uint64(blockLines)
			producer := core%2 == 0
			out := make([]Op, 0, ops)
			for len(out) < ops {
				for i := 0; i < blockLines && len(out) < ops; i++ {
					out = append(out, Op{Line: base + uint64(i), Write: producer})
				}
				if len(out) < ops {
					out = append(out, Op{Line: flag, Write: producer})
				}
			}
			return out
		},
	}
}

// Hotspot sends 20% of accesses to a small hot set of lines and the rest to
// a large shared array, producing home-bank contention and directory
// busy-state queueing.
func Hotspot(hotLines, coldLines int) Workload {
	return &funcWorkload{
		name: "hotspot",
		gen: func(core, cores, ops int, rng *sim.RNG) []Op {
			out := make([]Op, ops)
			for i := range out {
				var line uint64
				if rng.Bool(0.2) {
					line = uint64(rng.Intn(hotLines))
				} else {
					line = uint64(hotLines + rng.Intn(coldLines))
				}
				out[i] = Op{Line: line, Write: rng.Bool(0.4)}
			}
			return out
		},
	}
}

// Private gives each core its own working set with a small probability of
// touching a neighbour's lines; most traffic is L1/L2 misses and
// writebacks rather than coherence.
func Private(linesPerCore int) Workload {
	return &funcWorkload{
		name: "private",
		gen: func(core, cores, ops int, rng *sim.RNG) []Op {
			base := uint64(core) * uint64(linesPerCore)
			out := make([]Op, ops)
			for i := range out {
				b := base
				if rng.Bool(0.02) {
					b = uint64((core+1)%cores) * uint64(linesPerCore)
				}
				out[i] = Op{Line: b + uint64(rng.Intn(linesPerCore)), Write: rng.Bool(0.5)}
			}
			return out
		},
	}
}

// Locks emulates contended spin locks: cores repeatedly write one of a few
// lock lines (acquire), touch a couple of protected lines, and write the
// lock again (release). It produces repeated invalidation storms on the
// lock lines.
func Locks(locks, protectedLines int) Workload {
	return &funcWorkload{
		name: "locks",
		gen: func(core, cores, ops int, rng *sim.RNG) []Op {
			out := make([]Op, 0, ops)
			for len(out) < ops {
				lock := uint64(rng.Intn(locks))
				prot := uint64(locks) + lock*uint64(protectedLines)
				out = append(out, Op{Line: lock, Write: true})
				for i := 0; i < protectedLines && len(out) < ops; i++ {
					out = append(out, Op{Line: prot + uint64(i), Write: rng.Bool(0.5)})
				}
				if len(out) < ops {
					out = append(out, Op{Line: lock, Write: true})
				}
			}
			return out
		},
	}
}

// Scan streams sequentially through a large shared array, reading then
// writing each line, forcing capacity evictions, L2 replacement and memory
// traffic.
func Scan(lines int) Workload {
	return &funcWorkload{
		name: "scan",
		gen: func(core, cores, ops int, rng *sim.RNG) []Op {
			start := uint64(core) * uint64(lines) / uint64(cores)
			out := make([]Op, ops)
			for i := range out {
				line := (start + uint64(i/2)) % uint64(lines)
				out[i] = Op{Line: line, Write: i%2 == 1}
			}
			return out
		},
	}
}

// Handoff is the model checker's kernel: cores 0 and 1 alternate writes to
// one shared line while every other core stays idle. Two concurrent writers
// force the full ownership-transfer handshake (GetX, invalidation, AckO,
// backup deletion) with the smallest possible reachable state space — two
// active cores keep the interleaving count tractable for exhaustive
// exploration (internal/mc), where independent core pairs would multiply
// state spaces the checker cannot factor.
func Handoff() Workload {
	return &funcWorkload{
		name: "handoff",
		gen: func(core, cores, ops int, rng *sim.RNG) []Op {
			if core > 1 {
				return nil
			}
			out := make([]Op, ops)
			for i := range out {
				out[i] = Op{Line: 0, Write: true}
			}
			return out
		},
	}
}

// Suite returns the workload set used by the experiment harness, the
// stand-in for the paper's benchmark suite.
func Suite() []Workload {
	return []Workload{
		Uniform(512, 0.5),
		ReadMostly(512),
		Migratory(64),
		Producer(7),
		Hotspot(16, 1024),
		Private(128),
		Locks(8, 3),
		Scan(4096),
	}
}

// Extras returns workloads that are runnable by name but excluded from the
// experiment suite: specialized kernels whose shape only makes sense for a
// particular harness (Handoff exists to keep model-checking state spaces
// small, not to stand in for a benchmark).
func Extras() []Workload {
	return []Workload{
		Handoff(),
	}
}

// ByName returns the suite or extra workload with the given name.
func ByName(name string) (Workload, error) {
	for _, w := range Suite() {
		if w.Name() == name {
			return w, nil
		}
	}
	for _, w := range Extras() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}
