// Package proto holds the definitions shared by every coherence protocol
// (the directory controllers of internal/core, running DirCMP or FtDirCMP,
// and the token controllers of internal/token): node numbering and
// home-bank interleaving, protocol parameters, and the inspection
// interfaces used by the invariant checker.
package proto

import (
	"fmt"

	"repro/internal/msg"
)

// Topology maps protocol agents to node identifiers and addresses to their
// home banks. Node IDs start at 1 (0 is reserved as "no node"): L1 caches
// occupy [1, tiles], L2 banks [tiles+1, 2*tiles], memory controllers
// [2*tiles+1, 2*tiles+mems].
type Topology struct {
	Tiles    int
	Mems     int
	LineSize int
}

// L1 returns the node ID of tile i's L1 cache.
func (t Topology) L1(i int) msg.NodeID { return msg.NodeID(1 + i) }

// L2 returns the node ID of tile i's L2 bank.
func (t Topology) L2(i int) msg.NodeID { return msg.NodeID(1 + t.Tiles + i) }

// Mem returns the node ID of memory controller i.
func (t Topology) Mem(i int) msg.NodeID { return msg.NodeID(1 + 2*t.Tiles + i) }

// IsL1 reports whether id names an L1 cache.
func (t Topology) IsL1(id msg.NodeID) bool {
	return id >= 1 && int(id) <= t.Tiles
}

// IsL2 reports whether id names an L2 bank.
func (t Topology) IsL2(id msg.NodeID) bool {
	return int(id) > t.Tiles && int(id) <= 2*t.Tiles
}

// IsMem reports whether id names a memory controller.
func (t Topology) IsMem(id msg.NodeID) bool {
	return int(id) > 2*t.Tiles && int(id) <= 2*t.Tiles+t.Mems
}

// TileOf returns the tile index of an L1 or L2 node ID.
func (t Topology) TileOf(id msg.NodeID) int {
	if t.IsL1(id) {
		return int(id) - 1
	}
	if t.IsL2(id) {
		return int(id) - 1 - t.Tiles
	}
	panic(fmt.Sprintf("proto: node %d is not a cache", id))
}

// SharerIndex returns the dense bitset index for an L1 node ID.
func (t Topology) SharerIndex(id msg.NodeID) int {
	return int(id) - 1
}

// L1FromSharerIndex is the inverse of SharerIndex.
func (t Topology) L1FromSharerIndex(i int) msg.NodeID {
	return msg.NodeID(i + 1)
}

// LineAddr aligns an address to its cache line.
func (t Topology) LineAddr(addr msg.Addr) msg.Addr {
	return addr &^ msg.Addr(t.LineSize-1)
}

// LineIndex returns the line number of an aligned address.
func (t Topology) LineIndex(addr msg.Addr) uint64 {
	return uint64(addr) / uint64(t.LineSize)
}

// HomeL2 returns the L2 bank holding the directory for addr (line
// interleaving across banks).
func (t Topology) HomeL2(addr msg.Addr) msg.NodeID {
	return t.L2(int(t.LineIndex(addr) % uint64(t.Tiles)))
}

// HomeMem returns the memory controller backing addr (line interleaving,
// Table 4: "memory interleaving" across 4 controllers by default).
func (t Topology) HomeMem(addr msg.Addr) msg.NodeID {
	return t.Mem(int(t.LineIndex(addr) % uint64(t.Mems)))
}

// Params holds the protocol/cache parameters (Table 4 of the paper plus the
// fault-tolerance parameters of FtDirCMP).
type Params struct {
	LineSize int

	L1Size int
	L1Ways int
	L2Size int // per bank
	L2Ways int

	L1HitLatency uint64
	L2HitLatency uint64
	MemLatency   uint64

	MSHRs int // per cache; 0 = unbounded

	// MigratoryOpt enables the migratory-sharing optimization (paper §2).
	MigratoryOpt bool

	// Fault tolerance: used by FtDirCMP and FtTokenCMP, validated for every
	// protocol.
	SerialBits         int
	LostRequestTimeout uint64
	LostUnblockTimeout uint64
	LostAckBDTimeout   uint64
	BackupTimeout      uint64

	// DisablePiggyback makes every ownership acknowledgment a standalone
	// AckO message instead of riding the UnblockEx (ablation of the §3.1
	// optimization; protocol behaviour is otherwise identical).
	DisablePiggyback bool

	// Token-protocol parameters (TokenCMP/FtTokenCMP only).

	// RetryTimeout is the transient-request retry interval (cycles); 0
	// defaults to LostRequestTimeout.
	RetryTimeout uint64
	// PersistentThreshold is how many failed retries escalate to a
	// persistent request (0 defaults to 3).
	PersistentThreshold int
	// LostTokenTimeout starts the token recreation process (FtTokenCMP);
	// 0 defaults to 8x LostRequestTimeout.
	LostTokenTimeout uint64
}

// TokenRetryTimeout resolves the retry interval default.
func (p Params) TokenRetryTimeout() uint64 {
	if p.RetryTimeout != 0 {
		return p.RetryTimeout
	}
	return p.LostRequestTimeout
}

// TokenPersistentThreshold resolves the escalation default.
func (p Params) TokenPersistentThreshold() int {
	if p.PersistentThreshold != 0 {
		return p.PersistentThreshold
	}
	return 3
}

// TokenLostTimeout resolves the recreation-trigger default.
func (p Params) TokenLostTimeout() uint64 {
	if p.LostTokenTimeout != 0 {
		return p.LostTokenTimeout
	}
	return 8 * p.LostRequestTimeout
}

// Validate checks parameter sanity. The serial-number width and the Table 3
// timeouts are checked for every protocol, although only the
// fault-tolerant ones use them: a zero width would panic in
// msg.NewSerialSpace (or silently mask every token serial number to 0),
// and a zero timeout re-arms itself forever at the same cycle.
func (p Params) Validate() error {
	if p.LineSize <= 0 || p.LineSize&(p.LineSize-1) != 0 {
		return fmt.Errorf("proto: line size %d not a power of two", p.LineSize)
	}
	if p.L1Size <= 0 || p.L2Size <= 0 || p.L1Ways <= 0 || p.L2Ways <= 0 {
		return fmt.Errorf("proto: invalid cache geometry")
	}
	if p.SerialBits < 1 || p.SerialBits > 16 {
		return fmt.Errorf("proto: serial number bits %d out of range [1,16]", p.SerialBits)
	}
	for _, to := range []struct {
		name  string
		value uint64
	}{
		{"lost-request", p.LostRequestTimeout},
		{"lost-unblock", p.LostUnblockTimeout},
		{"lost-AckBD", p.LostAckBDTimeout},
		{"backup", p.BackupTimeout},
	} {
		if to.value == 0 {
			return fmt.Errorf("proto: %s timeout must be positive", to.name)
		}
	}
	return nil
}

// TIDSource allocates transaction IDs for one controller. Each controller
// that originates coherence transactions (an L1 starting a miss or
// writeback, an L2 starting a self-initiated eviction) owns one source, so
// TIDs are globally unique and deterministic: the originating node ID in the
// high half, a per-controller sequence number in the low half.
type TIDSource struct {
	node msg.NodeID
	seq  uint32
}

// NewTIDSource returns a source minting TIDs that name node as originator.
func NewTIDSource(node msg.NodeID) TIDSource { return TIDSource{node: node} }

// Next mints the next transaction ID. The first ID has sequence 1 so a zero
// TID always means "unattributed".
func (s *TIDSource) Next() msg.TID {
	s.seq++
	return msg.MakeTID(s.node, s.seq)
}

// Permission describes what an agent may do with a line.
type Permission int

const (
	// PermNone grants nothing.
	PermNone Permission = iota
	// PermRead grants read access.
	PermRead
	// PermWrite grants read and write access.
	PermWrite
)

// LineView is a protocol-independent snapshot of one line at one agent,
// consumed by the invariant checker and the deadlock diagnostics.
type LineView struct {
	Addr      msg.Addr
	Perm      Permission
	Owner     bool // the agent considers itself the owner of the line
	Backup    bool // the agent holds a backup copy (FtDirCMP/FtTokenCMP)
	Transient bool // a transaction is in flight for the line at this agent
	Payload   msg.Payload
	Tokens    int // token-protocol only: tokens held for the line

	// State is the protocol-specific state name ("M", "S+txn", "WB",
	// "backup", "mem", ...), for diagnostics only — the checker reasons
	// over the protocol-independent fields above.
	State string
	// SN is the serial number of the agent's in-flight transaction on the
	// line (MSHR entry, writeback or backup), zero when none or untracked.
	SN msg.SerialNumber
}

// Inspectable is implemented by every protocol agent so the checker can
// walk global state.
type Inspectable interface {
	// InspectLines calls fn for every line the agent holds state for.
	InspectLines(fn func(LineView))
	// NodeID returns the agent's network identity.
	NodeID() msg.NodeID
}

// AccessResult reports a completed core memory operation.
type AccessResult struct {
	Hit     bool
	Value   uint64
	Version uint64
	Latency uint64
}

// L1Port is the CPU-side interface of an L1 cache controller: the in-order
// core issues one access at a time and is called back on completion.
type L1Port interface {
	// Read requests the line's value. done runs when the access commits.
	Read(addr msg.Addr, done func(AccessResult))
	// Write stores value to the line. done runs when the write commits.
	Write(addr msg.Addr, value uint64, done func(AccessResult))
	// Quiesced reports whether the controller has no in-flight work.
	Quiesced() bool
}

// WriteObserver is notified when a write commits, for data-integrity
// checking (versions must be globally sequential per line).
type WriteObserver func(addr msg.Addr, version, value uint64)

// Sender transmits coherence messages; the mesh network implements it, and
// tests substitute fakes to drive controllers in isolation. Controllers
// draw every message they build from their Sender (NewMessage) and hand it
// back with Send, or with Recycle when they only used it locally; the
// network keeps a freelist behind both (msg.Pool). Fakes may return
// new(msg.Message) and ignore Recycle.
type Sender interface {
	NewMessage() *msg.Message
	Send(m *msg.Message)
	Recycle(m *msg.Message)
}
