// Package obs is the structured observability layer: a cycle-stamped
// recorder for protocol events (state transitions, fault-detection timeout
// firings, request reissues, backup lifecycle, pings, fault injections,
// recoveries) with a metrics registry derived from the event stream.
//
// The protocol controllers (internal/core for DirCMP and FtDirCMP,
// internal/token for TokenCMP and FtTokenCMP) emit into a Recorder through nil-safe methods, so an unobserved run pays
// only a nil check per event. The network feeds the Recorder too (it
// implements the noc.Recorder hook set): message drops become fault.inject
// events and recovery-ping traffic becomes ping/cancel events, without any
// extra instrumentation in the protocol layers. With the message feed on,
// every send and delivery becomes an event too; these wire events carry
// the message header, and WireLog renders them as the per-line message log.
//
// Storage is a bounded ring buffer (the last N events), allocated in chunks
// as events arrive, plus an optional streaming sink that observes every
// event regardless of the ring capacity. A capacity of zero keeps metrics
// only. The schema — every event kind and its fields — is documented in
// docs/OBSERVABILITY.md, and exporters for JSONL and the Chrome trace-event
// format (Perfetto-loadable) live in this package (see WriteJSONL and
// WriteChromeTrace).
//
// Recovery latency is measured per line address: a fault.inject event opens
// a recovery window at the cycle the loss takes effect, and the first
// subsequent transaction completion (txn.end) or backup deletion
// (backup.delete) on the same line closes every window open for it,
// emitting one recover event per closed window. Faults whose line never
// completes another transaction (e.g. a dropped duplicate of an already
// superseded response) stay open and are reported as unattributed.
package obs

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/stats"
)

// Kind enumerates the event kinds. Every kind emitted by the code is
// documented in docs/OBSERVABILITY.md (pinned by a test).
type Kind uint8

const (
	// KindState is a cache-line state transition (Old -> New at Node).
	KindState Kind = iota + 1
	// KindTimeout is a fault-detection timeout firing (Timeout says which).
	KindTimeout
	// KindReissue is a request or AckO reissued with a fresh serial number.
	KindReissue
	// KindBackupCreate marks a backup copy installed for an ownership
	// transfer (Dst is the data receiver).
	KindBackupCreate
	// KindBackupDelete marks a backup released (the AckO arrived).
	KindBackupDelete
	// KindPing is a recovery ping on the wire (UnblockPing, WbPing,
	// OwnershipPing), derived from the network feed.
	KindPing
	// KindCancel is a negative recovery answer on the wire (WbCancel,
	// NackO), derived from the network feed.
	KindCancel
	// KindTxnEnd is a transaction completing: an L1 miss, a directory
	// transaction, a memory transaction or an ownership handshake.
	KindTxnEnd
	// KindFaultInject is an injected fault taking effect (a message loss).
	KindFaultInject
	// KindRecover closes a recovery window: the faulted line completed a
	// transaction again, Latency cycles after the injection.
	KindRecover
	// KindRecreate is the FtTokenCMP token recreation process starting.
	KindRecreate
	// KindMsgSend is a message handed to the network (message feed; emitted
	// only when EnableMessageFeed was called, for span reconstruction).
	KindMsgSend
	// KindMsgRecv is a message delivered to its destination (message feed;
	// emitted only when EnableMessageFeed was called). Latency holds the
	// network transit time in cycles.
	KindMsgRecv
	// KindTileDeath is a structural fault taking effect: an entire tile
	// (core, L1, L2 bank and its directory slice) went permanently silent.
	// Node is the dead tile's L2 bank.
	KindTileDeath
	// KindReconstruct is the system-level directory reconstruction
	// completing after a tile death was declared: Node is the dead bank,
	// Latency the cycles from the death to the completed flush, and the
	// reconstructed/unrecoverable line counts land in the metrics.
	KindReconstruct

	numKinds = int(KindReconstruct)
)

var kindNames = [...]string{
	KindState:        "state",
	KindTimeout:      "timeout",
	KindReissue:      "reissue",
	KindBackupCreate: "backup.create",
	KindBackupDelete: "backup.delete",
	KindPing:         "ping",
	KindCancel:       "cancel",
	KindTxnEnd:       "txn.end",
	KindFaultInject:  "fault.inject",
	KindRecover:      "recover",
	KindRecreate:     "recreate",
	KindMsgSend:      "msg.send",
	KindMsgRecv:      "msg.recv",
	KindTileDeath:    "fault.tile_death",
	KindReconstruct:  "fault.reconstruct",
}

func (k Kind) String() string {
	if k >= 1 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AllKinds returns every event kind in declaration order.
func AllKinds() []Kind {
	out := make([]Kind, 0, numKinds)
	for k := KindState; k <= KindReconstruct; k++ {
		out = append(out, k)
	}
	return out
}

// TimeoutKind enumerates the fault-detection timeouts of Table 3.
type TimeoutKind uint8

const (
	// TimeoutLostRequest guards a request until its response arrives.
	TimeoutLostRequest TimeoutKind = iota + 1
	// TimeoutLostUnblock guards a response until its unblock arrives.
	TimeoutLostUnblock
	// TimeoutLostAckBD guards an AckO until its AckBD arrives.
	TimeoutLostAckBD
	// TimeoutBackup guards a backup copy until the receiver's AckO arrives.
	TimeoutBackup

	numTimeoutKinds = int(TimeoutBackup)
)

var timeoutNames = [...]string{
	TimeoutLostRequest: "lost_request",
	TimeoutLostUnblock: "lost_unblock",
	TimeoutLostAckBD:   "lost_ackbd",
	TimeoutBackup:      "backup",
}

func (t TimeoutKind) String() string {
	if t >= 1 && int(t) < len(timeoutNames) {
		return timeoutNames[t]
	}
	return fmt.Sprintf("TimeoutKind(%d)", int(t))
}

// AllTimeoutKinds returns every timeout kind in declaration order.
func AllTimeoutKinds() []TimeoutKind {
	out := make([]TimeoutKind, 0, numTimeoutKinds)
	for t := TimeoutLostRequest; t <= TimeoutBackup; t++ {
		out = append(out, t)
	}
	return out
}

// Event is one observed protocol event. Which fields are meaningful depends
// on Kind; unused fields are zero. See docs/OBSERVABILITY.md for the full
// schema.
type Event struct {
	// Seq numbers events in emission order, starting at 1.
	Seq uint64
	// Cycle is the simulation time the event was recorded at.
	Cycle uint64
	Kind  Kind
	// Timeout is set on KindTimeout events.
	Timeout TimeoutKind
	// Flags holds the message's header flags (FlagAckO, FlagFwd, FlagMigr,
	// FlagNoPayload) on wire events: msg.send, msg.recv and fault.inject.
	Flags uint8
	// Acks is the message's invalidation-ack count on wire events.
	Acks int32
	// Unit tags the emitting controller: "l1", "l2", "mem", "home" (token
	// protocols), or "net" for events derived from the network feed.
	Unit string
	// Node is the emitting agent (message source for network-derived
	// events, message destination for msg.recv).
	Node msg.NodeID
	// TID names the coherence transaction the event belongs to (the L1 miss
	// or self-initiated writeback/eviction that caused it); zero when
	// unattributed. See internal/span for the reconstruction built on it.
	TID msg.TID
	// Dst is the counterpart node where one exists: ping/cancel/fault
	// destination, backup receiver.
	Dst  msg.NodeID
	Addr msg.Addr
	// Type is the message type on reissue/ping/cancel and wire events.
	Type msg.Type
	// OldSN/NewSN are the superseded and fresh serial numbers on reissues;
	// NewSN is also the token serial number on recreate events and the
	// message's serial number on wire events.
	OldSN, NewSN msg.SerialNumber
	// Req is the message's requestor on wire events.
	Req int32
	// Version is the data version the message carries on wire events.
	Version uint64
	// Old/New are the state names on KindState events.
	Old, New string
	// Latency is, on KindRecover events, the cycles elapsed since the
	// injection that opened the window; on KindMsgRecv events, the network
	// transit time.
	Latency uint64
}

// Name returns a compact qualified name ("timeout:lost_request",
// "reissue:GetX", "state:I>M", ...) used by the exporters.
func (e Event) Name() string {
	switch e.Kind {
	case KindState:
		return "state:" + e.Old + ">" + e.New
	case KindTimeout:
		return "timeout:" + e.Timeout.String()
	case KindReissue, KindPing, KindCancel, KindFaultInject, KindMsgSend, KindMsgRecv:
		return e.Kind.String() + ":" + e.Type.String()
	default:
		return e.Kind.String()
	}
}

func (e Event) String() string {
	s := fmt.Sprintf("%8d %-22s node=%d addr=%#x", e.Cycle, e.Name(), e.Node, e.Addr)
	if e.Unit != "" {
		s += " unit=" + e.Unit
	}
	switch e.Kind {
	case KindReissue:
		s += fmt.Sprintf(" sn=%d->%d", e.OldSN, e.NewSN)
	case KindRecover, KindMsgRecv, KindReconstruct:
		s += fmt.Sprintf(" latency=%d", e.Latency)
	case KindPing, KindCancel, KindFaultInject, KindBackupCreate, KindMsgSend:
		s += fmt.Sprintf(" dst=%d", e.Dst)
	}
	return s
}

// Metrics is the registry derived from the event stream: counters per event
// kind, per timeout kind and per message type, plus the recovery-latency
// histogram (injected-fault cycle to recovered cycle).
type Metrics struct {
	// Events counts every emitted event.
	Events uint64
	// ByKind counts events per kind (indexed by Kind).
	ByKind [numKinds + 1]uint64
	// TimeoutsByKind counts timeout firings per Table 3 timeout (indexed by
	// TimeoutKind).
	TimeoutsByKind [numTimeoutKinds + 1]uint64
	// ByMsgType counts the events that carry a message type (reissues,
	// pings, cancels, fault injections), indexed by msg.Type.
	ByMsgType []uint64

	// FaultsInjected counts fault.inject events; FaultsRecovered counts the
	// recovery windows closed (equals RecoveryLatency.Count()).
	FaultsInjected  uint64
	FaultsRecovered uint64
	// RecoveryLatency distributes injection-to-recovery times in cycles.
	RecoveryLatency stats.Histogram

	// TileDeaths counts structural tile deaths; LinesReconstructed and
	// LinesUnrecoverable total the per-reconstruction line accounting; and
	// ReconstructionLatency distributes death-to-reconstructed times in
	// cycles (one sample per fault.reconstruct event).
	TileDeaths            uint64
	LinesReconstructed    uint64
	LinesUnrecoverable    uint64
	ReconstructionLatency stats.Histogram
}

// Unattributed returns the number of injected faults whose line never
// completed another transaction before the run ended.
func (m *Metrics) Unattributed() uint64 { return m.FaultsInjected - m.FaultsRecovered }

// KindCounts returns the per-kind counters keyed by kind name, omitting
// zero entries.
func (m *Metrics) KindCounts() map[string]uint64 {
	out := make(map[string]uint64)
	for _, k := range AllKinds() {
		if n := m.ByKind[k]; n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

// Recorder is the event recorder: a bounded ring buffer of the most recent
// events, an optional streaming sink, and the Metrics registry. All methods
// are safe on a nil *Recorder (they do nothing), so instrumentation sites
// never need a guard.
type Recorder struct {
	now func() uint64
	// The ring holds the last capacity events. Its storage is split into
	// chunks of ringChunk events (the last one shorter when the capacity is
	// not a multiple), each allocated when the first event lands in it, so
	// a run that emits fewer events than the capacity pays only for the
	// chunks it touched. Chunks are never copied or reallocated; the chunk
	// list grows by one as each is allocated, so no capacity, however
	// large, costs anything up front.
	capacity int
	chunks   [][]Event
	next     int
	full     bool
	seq      uint64
	sink     func(Event)
	met      Metrics

	// msgFeed turns every network send/delivery into msg.send/msg.recv
	// events (see EnableMessageFeed).
	msgFeed bool

	// probe, when set, runs after every closed recovery window with the
	// recovered line's address (see SetRecoveryProbe).
	probe func(addr msg.Addr)

	// pending maps a line address to the cycles of its open recovery
	// windows (injected faults not yet matched by a completion).
	pending map[msg.Addr][]uint64
}

// NewRecorder returns a recorder keeping the last capacity events; a
// capacity of zero records metrics only.
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{
		pending: make(map[msg.Addr][]uint64),
	}
	r.met.ByMsgType = make([]uint64, msg.NumTypes()+1)
	r.capacity = max(capacity, 0)
	return r
}

// ringChunk is the number of events per ring storage chunk: small enough
// that a short run allocates little past what it emits, large enough that
// a long recording needs few chunks.
const ringChunk = 1024

// slot returns ring position i, allocating its chunk on first use.
// Positions are first written in order, so a position's chunk is new
// exactly when it is one past the last chunk allocated.
func (r *Recorder) slot(i int) *Event {
	k := i / ringChunk
	if k == len(r.chunks) {
		r.chunks = append(r.chunks, make([]Event, min(ringChunk, r.capacity-k*ringChunk)))
	}
	return &r.chunks[k][i%ringChunk]
}

// retained returns the number of events the ring holds.
func (r *Recorder) retained() int {
	if r.full {
		return r.capacity
	}
	return r.next
}

// appendRange appends ring positions [lo, hi) to out, chunk by chunk.
func (r *Recorder) appendRange(out []Event, lo, hi int) []Event {
	for lo < hi {
		base := lo / ringChunk * ringChunk
		c := r.chunks[lo/ringChunk]
		end := min(hi, base+len(c))
		out = append(out, c[lo-base:end-base]...)
		lo = end
	}
	return out
}

// SetClock binds the recorder to a simulation clock; the system wires it to
// the engine on construction. Without a clock, events are stamped cycle 0.
func (r *Recorder) SetClock(now func() uint64) {
	if r == nil {
		return
	}
	r.now = now
}

// SetSink installs a streaming observer called once per event in emission
// order, independently of the ring capacity.
func (r *Recorder) SetSink(fn func(Event)) {
	if r == nil {
		return
	}
	r.sink = fn
}

// Metrics returns the derived metrics registry (nil for a nil recorder).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return &r.met
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	n := r.retained()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	if r.full {
		out = r.appendRange(out, r.next, r.capacity)
	}
	return r.appendRange(out, 0, r.next)
}

// emit stamps, counts, stores and streams one event.
func (r *Recorder) emit(e Event) {
	r.seq++
	e.Seq = r.seq
	if r.now != nil {
		e.Cycle = r.now()
	}
	r.met.Events++
	if e.Kind >= 1 && int(e.Kind) <= numKinds {
		r.met.ByKind[e.Kind]++
	}
	if e.Kind == KindTimeout {
		r.met.TimeoutsByKind[e.Timeout]++
	}
	if e.Type >= 1 && int(e.Type) < len(r.met.ByMsgType) {
		r.met.ByMsgType[e.Type]++
	}
	if r.capacity > 0 {
		*r.slot(r.next) = e
		r.next++
		if r.next == r.capacity {
			r.next, r.full = 0, true
		}
	}
	if r.sink != nil {
		r.sink(e)
	}
}

// counted numbers and counts an event of kind k, as emit does, when the
// recorder only counts: it keeps no ring and streams to no sink. The
// frequent fault-free events (state changes, transaction ends, backups)
// check it first, so a counting recorder never builds their Event.
func (r *Recorder) counted(k Kind) bool {
	if r.capacity > 0 || r.sink != nil {
		return false
	}
	r.seq++
	r.met.Events++
	r.met.ByKind[k]++
	return true
}

// open starts a recovery window for addr at the current cycle.
func (r *Recorder) open(addr msg.Addr) {
	r.met.FaultsInjected++
	var at uint64
	if r.now != nil {
		at = r.now()
	}
	r.pending[addr] = append(r.pending[addr], at)
}

// close closes every recovery window open for addr, emitting one recover
// event per window.
func (r *Recorder) close(unit string, node msg.NodeID, addr msg.Addr) {
	opens := r.pending[addr]
	if len(opens) == 0 {
		return
	}
	delete(r.pending, addr)
	var at uint64
	if r.now != nil {
		at = r.now()
	}
	for _, openAt := range opens {
		lat := at - openAt
		r.met.FaultsRecovered++
		r.met.RecoveryLatency.Add(lat)
		r.emit(Event{Kind: KindRecover, Unit: unit, Node: node, Addr: addr, Latency: lat})
	}
	if r.probe != nil {
		r.probe(addr)
	}
}

// SetRecoveryProbe installs a hook that runs once each time the recovery
// windows of a line close (after the recover events are emitted), with the
// recovered line's address. The system uses it to re-check protocol
// invariants on the line the moment a recovery completes, so a corruption
// introduced by a fault is caught at the recovery point instead of at the
// end of the run.
func (r *Recorder) SetRecoveryProbe(fn func(addr msg.Addr)) {
	if r == nil {
		return
	}
	r.probe = fn
}

// LastEventFor returns the most recent retained event touching addr, if the
// ring still holds one. It is a diagnostic helper (deadlock dumps); with a
// zero-capacity ring it never finds anything.
func (r *Recorder) LastEventFor(addr msg.Addr) (Event, bool) {
	if r == nil {
		return Event{}, false
	}
	// Walk back from the newest event without copying the ring.
	for k := 1; k <= r.retained(); k++ {
		i := r.next - k
		if i < 0 {
			i += r.capacity
		}
		if e := &r.chunks[i/ringChunk][i%ringChunk]; e.Addr == addr {
			return *e, true
		}
	}
	return Event{}, false
}

// StateChange records a cache-line state transition at node.
func (r *Recorder) StateChange(unit string, node msg.NodeID, addr msg.Addr, tid msg.TID, old, new string) {
	if r == nil || r.counted(KindState) {
		return
	}
	r.emit(Event{Kind: KindState, Unit: unit, Node: node, Addr: addr, TID: tid, Old: old, New: new})
}

// TimeoutFired records a fault-detection timeout firing at node.
func (r *Recorder) TimeoutFired(unit string, node msg.NodeID, addr msg.Addr, tid msg.TID, k TimeoutKind) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindTimeout, Unit: unit, Node: node, Addr: addr, TID: tid, Timeout: k})
}

// Reissue records a request (or AckO) reissued with a fresh serial number.
func (r *Recorder) Reissue(unit string, node msg.NodeID, addr msg.Addr, tid msg.TID, t msg.Type, oldSN, newSN msg.SerialNumber) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindReissue, Unit: unit, Node: node, Addr: addr, TID: tid, Type: t, OldSN: oldSN, NewSN: newSN})
}

// BackupCreated records a backup copy installed at node for a transfer to
// dst.
func (r *Recorder) BackupCreated(unit string, node msg.NodeID, addr msg.Addr, tid msg.TID, dst msg.NodeID) {
	if r == nil || r.counted(KindBackupCreate) {
		return
	}
	r.emit(Event{Kind: KindBackupCreate, Unit: unit, Node: node, Addr: addr, TID: tid, Dst: dst})
}

// BackupDeleted records a backup released at node. It also closes any open
// recovery window for the line (an ownership handshake completed).
func (r *Recorder) BackupDeleted(unit string, node msg.NodeID, addr msg.Addr, tid msg.TID) {
	if r == nil {
		return
	}
	if !r.counted(KindBackupDelete) {
		r.emit(Event{Kind: KindBackupDelete, Unit: unit, Node: node, Addr: addr, TID: tid})
	}
	r.close(unit, node, addr)
}

// TransactionEnd records a completed transaction (miss, directory or memory
// transaction, ownership handshake) and closes any open recovery window for
// the line.
func (r *Recorder) TransactionEnd(unit string, node msg.NodeID, addr msg.Addr, tid msg.TID) {
	if r == nil {
		return
	}
	if !r.counted(KindTxnEnd) {
		r.emit(Event{Kind: KindTxnEnd, Unit: unit, Node: node, Addr: addr, TID: tid})
	}
	r.close(unit, node, addr)
}

// TileDeath records a structural tile death taking effect: node is the dead
// tile's L2 bank (the directory slice that just vanished).
func (r *Recorder) TileDeath(node msg.NodeID) {
	if r == nil {
		return
	}
	r.met.TileDeaths++
	r.emit(Event{Kind: KindTileDeath, Unit: "sys", Node: node})
}

// Reconstructed records the directory reconstruction flush completing after
// a tile death: node is the dead bank, reconstructed/unrecoverable the line
// accounting, and latency the cycles elapsed since the death.
func (r *Recorder) Reconstructed(node msg.NodeID, reconstructed, unrecoverable int, latency uint64) {
	if r == nil {
		return
	}
	r.met.LinesReconstructed += uint64(reconstructed)
	r.met.LinesUnrecoverable += uint64(unrecoverable)
	r.met.ReconstructionLatency.Add(latency)
	r.emit(Event{Kind: KindReconstruct, Unit: "sys", Node: node, Latency: latency})
}

// Recreate records the FtTokenCMP token recreation process starting at the
// home node, under the new token serial number.
func (r *Recorder) Recreate(node msg.NodeID, addr msg.Addr, sn msg.SerialNumber) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindRecreate, Unit: "home", Node: node, Addr: addr, NewSN: sn})
}

// Network feed: the Recorder implements the noc recorder hook set, so the
// system wires it next to the statistics collector.

// EnableMessageFeed turns on per-message events: every send becomes a
// msg.send event and every delivery a msg.recv event (with the network
// transit latency), in addition to the always-on ping/cancel derivation.
// The feed is what the span reconstructor (internal/span) consumes; it is
// off by default because it multiplies the event volume by the message
// count.
func (r *Recorder) EnableMessageFeed() {
	if r == nil {
		return
	}
	r.msgFeed = true
}

// MessageSent derives ping/cancel events from the recovery traffic on the
// wire, and (with the message feed enabled) a msg.send event for every
// message; without the feed, other sends are left to the statistics layer.
func (r *Recorder) MessageSent(m *msg.Message, bytes int) {
	if r == nil {
		return
	}
	switch m.Type {
	case msg.UnblockPing, msg.WbPing, msg.OwnershipPing:
		r.emit(Event{Kind: KindPing, Unit: "net", Node: m.Src, Dst: m.Dst, Addr: m.Addr, TID: m.TID, Type: m.Type})
	case msg.WbCancel, msg.NackO:
		r.emit(Event{Kind: KindCancel, Unit: "net", Node: m.Src, Dst: m.Dst, Addr: m.Addr, TID: m.TID, Type: m.Type})
	}
	if r.msgFeed {
		r.emit(wireEvent(KindMsgSend, m.Src, m.Dst, m))
	}
}

// MessageDropped records an injected fault taking effect (stamped at the
// cycle the message would have been delivered) and opens the line's
// recovery window.
func (r *Recorder) MessageDropped(m *msg.Message) {
	if r == nil {
		return
	}
	r.emit(wireEvent(KindFaultInject, m.Src, m.Dst, m))
	r.open(m.Addr)
}

// MessageDelivered records, with the message feed enabled, a msg.recv event
// at the destination carrying the network transit latency; otherwise
// deliveries are not events (the statistics layer counts them).
func (r *Recorder) MessageDelivered(m *msg.Message, latency uint64) {
	if r == nil || !r.msgFeed {
		return
	}
	e := wireEvent(KindMsgRecv, m.Dst, m.Src, m)
	e.Latency = latency
	r.emit(e)
}
