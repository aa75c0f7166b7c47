package system

import (
	"repro/internal/proto"
)

// State fingerprinting for the model checker (internal/mc).
//
// StateFingerprint condenses the protocol-visible state of the whole
// system into one 64-bit hash: every line view of every agent (the 8
// InspectLines implementations), the memory image, and per-core progress.
// Two states with equal fingerprints are treated as the same state by the
// checker's revisit pruning, so the hash must be a pure function of
// protocol state — in particular it must not depend on the order
// InspectLines happens to enumerate lines (the memory controllers and the
// token homes still enumerate Go maps), nor on the simulation clock (the
// checker's untimed abstraction identifies states that differ only in
// timing). Each line is visited once per fingerprint: the one walk feeds
// both the per-agent line sums and the memory image.
//
// The in-flight message multiset — the other half of a model-checking
// state — is kept by the network itself (noc.Network.InFlight: each
// message's msg.Fingerprint is computed once, at Send) and combined with
// this fingerprint by the checker.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds v into h one byte at a time (FNV-1a step).
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// lineFingerprint hashes one agent's view of one line. Every
// protocol-visible LineView field participates, including the
// protocol-specific state name — transient states ("S+txn", "WB",
// "backup") are part of a model-checking state even when the
// protocol-independent fields coincide.
func lineFingerprint(v proto.LineView) uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix(h, uint64(v.Addr))
	h = fnvMix(h, uint64(v.Perm))
	var flags uint64
	if v.Owner {
		flags |= 1
	}
	if v.Backup {
		flags |= 2
	}
	if v.Transient {
		flags |= 4
	}
	h = fnvMix(h, flags)
	h = fnvMix(h, v.Payload.Value)
	h = fnvMix(h, v.Payload.Version)
	h = fnvMix(h, uint64(int64(v.Tokens)))
	h = fnvMix(h, uint64(v.SN))
	for i := 0; i < len(v.State); i++ {
		h ^= uint64(v.State[i])
		h *= fnvPrime64
	}
	return h
}

// StateFingerprint hashes the protocol state of every agent plus core
// progress and the memory image. Per-agent line hashes are combined by
// commutative addition (InspectLines order varies run to run); the
// per-agent sums are then folded in the deterministic agent construction
// order, so state at L1 0 and state at L1 1 do not cancel. Each agent's
// lines are walked once: the per-line accumulator (fpLine, bound once by
// New, so a fingerprint builds no closure per agent) adds the line's hash
// to fpSum and gathers the owner views of live agents into the memory
// image, which is then sorted and hashed exactly as MemoryImageHash does.
func (s *System) StateFingerprint() uint64 {
	h := uint64(fnvOffset64)
	s.image = s.image[:0]
	for _, a := range s.agents {
		s.fpSum = 0
		// A dead agent's lines still count as state, but not toward the
		// memory image (see memoryImage).
		s.fpImage = !s.deadNodes[a.NodeID()]
		a.InspectLines(s.fpLine)
		h = fnvMix(h, s.fpSum)
	}
	for _, c := range s.cores {
		progress := c.Completed() << 1
		if c.Done() {
			progress |= 1
		}
		h = fnvMix(h, progress)
	}
	h = fnvMix(h, imageHash(s.sortImage()))
	return h
}
