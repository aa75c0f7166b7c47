// Package msg defines the coherence messages exchanged by the DirCMP and
// FtDirCMP protocols (Tables 1 and 2 of the paper), their on-network sizes,
// the category grouping used by the network-overhead evaluation (Figure 4),
// request serial numbers, and the CRC used to model discard-on-corruption.
package msg

import "fmt"

// NodeID identifies a protocol agent attached to the network: an L1 cache,
// an L2 bank or a memory controller.
type NodeID int

// Addr is a cache-line-aligned physical address.
type Addr uint64

// Type enumerates every coherence message. The first group is Table 1
// (DirCMP); the second group is Table 2 (messages added by FtDirCMP).
type Type int

const (
	// GetX requests data and permission to write.
	GetX Type = iota + 1
	// GetS requests data and permission to read.
	GetS
	// Put is sent by the L1 to initiate a write-back.
	Put
	// WbAck is sent by the L2 to let the L1 actually perform the write-back.
	WbAck
	// Inv asks a sharer to invalidate its copy before exclusive access is
	// granted to the requester carried in the message.
	Inv
	// Ack acknowledges an invalidation, sent to the requester.
	Ack
	// Data carries data and read permission.
	Data
	// DataEx carries data and write permission (and ownership).
	DataEx
	// Unblock tells the L2 the data was received; the sender is a sharer.
	Unblock
	// UnblockEx tells the L2 the data was received; the sender now has
	// exclusive access.
	UnblockEx
	// WbData is a write-back carrying data.
	WbData
	// WbNoData is a write-back carrying no data.
	WbNoData

	// AckO is the ownership acknowledgment (FtDirCMP).
	AckO
	// AckBD is the backup deletion acknowledgment (FtDirCMP).
	AckBD
	// UnblockPing asks whether a cache miss is still in progress (FtDirCMP).
	UnblockPing
	// WbPing asks whether a writeback is still in progress (FtDirCMP).
	WbPing
	// WbCancel confirms that a previous writeback already finished (FtDirCMP).
	WbCancel
	// OwnershipPing requests confirmation of ownership (FtDirCMP).
	OwnershipPing
	// NackO is a "not ownership" acknowledgment (FtDirCMP).
	NackO

	numTypes = int(NackO)
)

var typeNames = [...]string{
	GetX:            "GetX",
	GetS:            "GetS",
	Put:             "Put",
	WbAck:           "WbAck",
	Inv:             "Inv",
	Ack:             "Ack",
	Data:            "Data",
	DataEx:          "DataEx",
	Unblock:         "Unblock",
	UnblockEx:       "UnblockEx",
	WbData:          "WbData",
	WbNoData:        "WbNoData",
	AckO:            "AckO",
	AckBD:           "AckBD",
	UnblockPing:     "UnblockPing",
	WbPing:          "WbPing",
	WbCancel:        "WbCancel",
	OwnershipPing:   "OwnershipPing",
	NackO:           "NackO",
	TrGetS:          "TrGetS",
	TrGetX:          "TrGetX",
	TokenGrant:      "TokenGrant",
	TokenRelease:    "TokenRelease",
	PersistentReq:   "PersistentReq",
	PersistentAct:   "PersistentAct",
	PersistentDeact: "PersistentDeact",
	RecreateReq:     "RecreateReq",
	RecreateInv:     "RecreateInv",
	RecreateAck:     "RecreateAck",
}

func (t Type) String() string {
	if t >= 1 && int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// NumTypes returns how many message types exist (for sizing stat arrays),
// including the token-protocol types.
func NumTypes() int { return numTypes + numTokenTypes }

// AllTypes returns every message type in declaration order, including the
// token-protocol types.
func AllTypes() []Type {
	out := make([]Type, 0, NumTypes())
	for t := GetX; t <= NackO; t++ {
		out = append(out, t)
	}
	return append(out, TokenTypes()...)
}

// BaseTypes returns the DirCMP message types (Table 1).
func BaseTypes() []Type {
	out := make([]Type, 0, int(WbNoData))
	for t := GetX; t <= WbNoData; t++ {
		out = append(out, t)
	}
	return out
}

// FtTypes returns the message types added by FtDirCMP (Table 2).
func FtTypes() []Type {
	out := make([]Type, 0, int(NackO-AckO)+1)
	for t := AckO; t <= NackO; t++ {
		out = append(out, t)
	}
	return out
}

// IsFtOnly reports whether t exists only in FtDirCMP (Table 2).
func (t Type) IsFtOnly() bool { return t >= AckO && t <= NackO }

// CarriesData reports whether the message includes a cache-line payload and
// therefore uses the data message size.
func (t Type) CarriesData() bool {
	switch t {
	case Data, DataEx, WbData, TokenGrant, TokenRelease, RecreateAck:
		return true
	default:
		return false
	}
}

// Category groups message types for the Figure 4 traffic breakdown.
type Category int

const (
	// CatRequest covers GetX, GetS and Put.
	CatRequest Category = iota + 1
	// CatResponse covers Data, DataEx and WbAck.
	CatResponse
	// CatCoherence covers Inv and Ack.
	CatCoherence
	// CatUnblock covers Unblock and UnblockEx.
	CatUnblock
	// CatWriteback covers WbData and WbNoData.
	CatWriteback
	// CatOwnership covers AckO and AckBD — the acknowledgments that ensure
	// reliable ownership transference; the paper shows the fault-free
	// overhead comes entirely from this category.
	CatOwnership
	// CatPing covers UnblockPing, WbPing, WbCancel, OwnershipPing and NackO;
	// these appear only when faults (or false-positive timeouts) occur.
	CatPing

	numCategories = int(CatPing)
)

var categoryNames = [...]string{
	CatRequest:   "request",
	CatResponse:  "response",
	CatCoherence: "coherence",
	CatUnblock:   "unblock",
	CatWriteback: "writeback",
	CatOwnership: "ownership",
	CatPing:      "ping",
}

func (c Category) String() string {
	if c >= 1 && int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// NumCategories returns how many traffic categories exist.
func NumCategories() int { return numCategories }

// AllCategories returns every category in declaration order.
func AllCategories() []Category {
	out := make([]Category, 0, numCategories)
	for c := CatRequest; c <= CatPing; c++ {
		out = append(out, c)
	}
	return out
}

// CategoryOf maps a message type to its Figure 4 category.
func CategoryOf(t Type) Category {
	switch t {
	case GetX, GetS, Put:
		return CatRequest
	case Data, DataEx, WbAck:
		return CatResponse
	case Inv, Ack:
		return CatCoherence
	case Unblock, UnblockEx:
		return CatUnblock
	case WbData, WbNoData:
		return CatWriteback
	case AckO, AckBD:
		return CatOwnership
	case UnblockPing, WbPing, WbCancel, OwnershipPing, NackO:
		return CatPing
	case TrGetS, TrGetX, PersistentReq:
		return CatRequest
	case TokenGrant, RecreateAck:
		return CatResponse
	case TokenRelease:
		return CatWriteback
	case PersistentAct, PersistentDeact:
		return CatCoherence
	case RecreateReq, RecreateInv:
		return CatPing
	default:
		panic(fmt.Sprintf("msg: unknown type %v", t))
	}
}

// Payload is the cache-line content carried by data messages. Value is the
// simulated line content; Version counts committed writes to the line and is
// used by the correctness checker to detect lost or stale data.
type Payload struct {
	Value   uint64
	Version uint64
}

// TID is a transaction identifier correlating every message (and structured
// event, see internal/obs) caused by one coherence transaction — usually an
// L1 miss, or a self-initiated writeback/eviction. TIDs are simulator
// metadata, not protocol state: they ride on messages for observability but
// are excluded from the wire encoding (crc.go), so the modeled message sizes
// and the corruption model are unaffected. Zero means "unattributed".
type TID uint64

// MakeTID builds a transaction ID from the originating node and that node's
// per-controller sequence number.
func MakeTID(node NodeID, seq uint32) TID { return TID(node)<<32 | TID(seq) }

// Node returns the originating node of the transaction.
func (t TID) Node() NodeID { return NodeID(t >> 32) }

// Seq returns the originator-local sequence number of the transaction.
func (t TID) Seq() uint32 { return uint32(t) }

// Message is a coherence message in flight. Messages are passed by pointer
// through the network model but must be treated as immutable once sent;
// receivers that need to derive a reply build a new Message.
type Message struct {
	Type Type
	Src  NodeID
	Dst  NodeID
	Addr Addr

	// TID names the coherence transaction this message belongs to.
	// Responses and forwards echo the TID of the message that caused them.
	// Pure observability metadata: not on the wire (see TID), not printed by
	// String, ignored by the protocol state machines.
	TID TID

	// SN is the request serial number (FtDirCMP §3.5). Responses and
	// forwarded requests carry the serial number of the request they answer.
	// DirCMP leaves it zero.
	SN SerialNumber

	// Requestor identifies the original requesting node on forwarded
	// requests (a GetX/GetS forwarded by the L2 to an owner L1, or an Inv:
	// the Ack must go to the Requestor). Zero-valued for plain requests.
	Requestor NodeID

	// AckCount tells the requester how many invalidation acknowledgments
	// must arrive before write permission is complete (carried by DataEx).
	AckCount int

	// Payload is the line content on data-carrying messages.
	Payload Payload

	// PiggybackAckO marks an UnblockEx that also carries the ownership
	// acknowledgment (paper §3.1: the AckO can be piggybacked when the data
	// came from the node the unblock goes to).
	PiggybackAckO bool

	// Owner reports, on Data responses sent L1→L1, whether ownership moved
	// with the data (MOESI: a shared-data response from an owner keeps
	// ownership at the sender, so Owner is false there).
	Owner bool

	// WantData is set on WbAck when the L2 needs the data (line dirty) and
	// on recall invalidations.
	WantData bool

	// Forwarded marks a GetX/GetS forwarded by the home L2 to the current
	// owner; it selects the forward virtual-channel class and tells the
	// receiver to answer the Requestor rather than the Src.
	Forwarded bool

	// Dirty marks carried data as modified with respect to memory. A clean
	// DataEx grants the E state; a dirty one grants M.
	Dirty bool

	// Migratory marks a forwarded GetS handled with the migratory-sharing
	// optimization: the owner passes exclusive ownership instead of
	// degrading to shared.
	Migratory bool

	// NoPayload marks a DataEx that grants write permission and an
	// invalidation-acknowledgment count without carrying data, used when
	// the requester already holds valid data (upgrade from S or O). Such a
	// message has control size on the wire.
	NoPayload bool

	// next chains a free message in its network's Pool (pool.go). It is
	// nil while the message is in use, so a copy of one carries nil.
	next *Message
}

// Class returns the virtual-channel class the message travels in.
func (m *Message) Class() Class { return ClassOf(m.Type, m.Forwarded) }

// SizeBytes returns the on-network size of the message given the configured
// control and data message sizes (Table 4: 8 and 72 bytes by default).
func (m *Message) SizeBytes(controlSize, dataSize int) int {
	if m.Type.CarriesData() && !m.NoPayload {
		return dataSize
	}
	return controlSize
}

func (m *Message) String() string {
	return fmt.Sprintf("%v src=%d dst=%d addr=%#x sn=%d req=%d acks=%d v=%d",
		m.Type, m.Src, m.Dst, m.Addr, m.SN, m.Requestor, m.AckCount, m.Payload.Version)
}
