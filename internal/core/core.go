// Package core implements the directory-based MOESI cache coherence
// protocols: FtDirCMP, the paper's primary contribution, which guarantees
// correct program execution even when the interconnection network loses
// messages due to transient faults (§3 of the paper), and DirCMP, the
// baseline it extends (§2).
//
// Both share one directory organisation. The L2 is shared, physically
// distributed (one bank per tile, line-interleaved homes) and
// non-inclusive; each bank is the directory for the L1s. Per-line busy
// states serialize transactions: the directory attends one request per
// line and queues the rest until the Unblock/UnblockEx (or the writeback
// data) closes the transaction. Writebacks are three-phase (Put → WbAck →
// WbData/WbNoData), and a migratory-sharing optimization turns
// read-modify-write sharing into exclusive grants.
//
// DirCMP is FtDirCMP with its four mechanisms switched off: the
// controllers take an ft flag, and with ft false they keep no backups,
// arm no timers, send every serial number as 0 and release memory as soon
// as fetched data arrives. DirCMP assumes a reliable network: losing any
// message deadlocks it, which is exactly the property the evaluation
// demonstrates. The four mechanisms are:
//
//  1. Reliable ownership transference (§3.1). Whenever owned data moves
//     between nodes, the sender keeps a backup copy (Backup state) until an
//     ownership acknowledgment (AckO) arrives, and the receiver holds the
//     line in a blocked-ownership state (Mb/Eb/Ob) — usable, but not
//     transferable — until the backup deletion acknowledgment (AckBD)
//     arrives. This guarantees that, for every line, there is always an
//     owner with the data, a backup copy, or both, and never more than one
//     of each. The AckO is piggybacked on the UnblockEx message whenever
//     the data came from the node the unblock goes to (L2→L1 and mem→L2
//     transfers), keeping the handshake off the critical path.
//
//  2. Fault detection by timeouts (§3.2–§3.4, Table 3):
//     - lost request: at the requester, from request issue until the miss
//     is satisfied; triggering reissues the request with a new serial
//     number. Also guards Put requests until their WbAck.
//     - lost unblock: at the responder (L2 or memory), from answering a
//     request until the Unblock/UnblockEx (or writeback data) arrives;
//     triggering sends an UnblockPing (or WbPing).
//     - lost backup deletion acknowledgment: at the AckO sender, until the
//     AckBD arrives; triggering resends the AckO with a new serial
//     number.
//     - backup (our conservative reading of OwnershipPing/NackO, see
//     DESIGN.md): a node stuck in Backup state pings the data receiver;
//     the receiver confirms ownership with AckO or denies it with NackO.
//
//  3. Request serial numbers (§3.5). Every request and response carries a
//     small serial number; responses that answer an old, superseded attempt
//     are discarded, preventing the Figure 2 incoherence.
//
//  4. Internally/externally blocked L2 states (§3.1.1). After an L2 miss,
//     the L2 forwards the data to the requesting L1 immediately, keeping an
//     in-chip backup, and delays its own UnblockEx+AckO to memory until the
//     L1's AckO arrives — so the memory round-trip of the ownership
//     handshake never lengthens the miss. While "externally blocked"
//     (waiting for memory's AckBD) the line can still move between L1s; it
//     only cannot be written back to memory.
//
// With ft set, the controllers never assume a message arrives: every
// handler tolerates duplicates from reissues and discards stale serial
// numbers.
package core

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/proto"
)

// L1 stable line states (stored in cache.Line.State). Blocked-ownership
// (Mb/Eb/Ob) is the same base state plus an entry in the L1's blocked map;
// backup copies live in a dedicated backup buffer.
const (
	// StateS is shared, read-only.
	StateS = iota + 1
	// StateE is exclusive clean.
	StateE
	// StateM is modified.
	StateM
	// StateO is owned (read-only, responsible for the data).
	StateO
)

// L2 directory states.
const (
	// L2StateS: this bank owns the data; Sharers lists L1 copies.
	L2StateS = iota + 1
	// L2StateM: an L1 owns the line.
	L2StateM
)

func stateName(s int) string {
	switch s {
	case StateS:
		return "S"
	case StateE:
		return "E"
	case StateM:
		return "M"
	case StateO:
		return "O"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// stateNameMiss and stateNameBlocked return the interned "<state>+suffix"
// diagnostic names used by InspectLines. The checker inspects every line of
// every agent per run, so building these by concatenation would allocate
// per line.
func stateNameMiss(s int) string {
	switch s {
	case StateS:
		return "S+miss"
	case StateE:
		return "E+miss"
	case StateM:
		return "M+miss"
	case StateO:
		return "O+miss"
	default:
		return stateName(s) + "+miss"
	}
}

func stateNameBlocked(s int) string {
	switch s {
	case StateS:
		return "S+blocked"
	case StateE:
		return "E+blocked"
	case StateM:
		return "M+blocked"
	case StateO:
		return "O+blocked"
	default:
		return stateName(s) + "+blocked"
	}
}

func ownerState(s int) bool { return s == StateE || s == StateM || s == StateO }

func writableState(s int) bool { return s == StateE || s == StateM }

func permOf(s int) proto.Permission {
	switch s {
	case StateS, StateO:
		return proto.PermRead
	case StateE, StateM:
		return proto.PermWrite
	default:
		return proto.PermNone
	}
}

// nextSN draws a fresh serial number from s, or 0 when the controller runs
// without serial numbers (DirCMP, s nil).
func nextSN(s *msg.SerialSpace) msg.SerialNumber {
	if s == nil {
		return 0
	}
	return s.Next()
}

// protocolPanic reports a broken internal invariant. The controllers only
// panic on states that are impossible even under arbitrary message loss —
// anything a fault can cause is handled or counted instead.
func protocolPanic(format string, args ...any) {
	panic("core: protocol invariant violated: " + fmt.Sprintf(format, args...))
}
