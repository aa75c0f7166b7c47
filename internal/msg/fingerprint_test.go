package msg

import (
	"math"
	"math/rand"
	"testing"
)

// refFingerprint is the original Fingerprint: FNV-1a over the header bytes
// of the full wire encoding, CRC trailer computed and then skipped.
// Fingerprint must keep its values bit-identical, because the model
// checker's state hashes and their goldens are sums of them.
func refFingerprint(m *Message) uint64 {
	var scratch [wireSize + 2]byte
	buf := EncodeAppend(scratch[:0], m)
	h := uint64(fnvOffset64)
	for _, b := range buf[:wireSize] {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// messageFromFields builds a message from raw field values; flags bit i
// sets the i-th boolean in wire order.
func messageFromFields(typ uint8, src, dst, req int16, addr uint64, sn uint16, acks int, val, ver uint64, flags uint8, tid uint64) *Message {
	return &Message{
		Type:          Type(typ),
		Src:           NodeID(src),
		Dst:           NodeID(dst),
		Addr:          Addr(addr),
		TID:           TID(tid),
		SN:            SerialNumber(sn),
		Requestor:     NodeID(req),
		AckCount:      acks,
		Payload:       Payload{Value: val, Version: ver},
		PiggybackAckO: flags&1 != 0,
		Owner:         flags&2 != 0,
		WantData:      flags&4 != 0,
		Forwarded:     flags&8 != 0,
		Dirty:         flags&16 != 0,
		Migratory:     flags&32 != 0,
		NoPayload:     flags&64 != 0,
	}
}

func TestFingerprintMatchesWireEncoding(t *testing.T) {
	var msgs []*Message
	// Every flag bit alone, then all of them, on an otherwise fixed message.
	for bit := 0; bit < 7; bit++ {
		msgs = append(msgs, messageFromFields(uint8(DataEx), 1, 2, 3, 0x40, 5, 1, 7, 8, 1<<bit, 0))
	}
	msgs = append(msgs,
		messageFromFields(uint8(DataEx), 1, 2, 3, 0x40, 5, 1, 7, 8, 0x7f, 0),
		// Negative endpoints, requestor and ack count.
		messageFromFields(uint8(Inv), -1, -2, -3, 0x80, 1, -1, 0, 0, 0, 0),
		messageFromFields(uint8(Ack), math.MinInt16, math.MaxInt16, math.MinInt16, 0, 0, math.MinInt16, 0, 0, 0, 0),
		// A maximal payload, address, serial number and ack count.
		messageFromFields(math.MaxUint8, math.MaxInt16, math.MaxInt16, math.MaxInt16, math.MaxUint64, math.MaxUint16, math.MaxInt, math.MaxUint64, math.MaxUint64, 0xff, math.MaxUint64),
		&Message{},
	)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		msgs = append(msgs, messageFromFields(uint8(rng.Intn(NumTypes()+2)),
			int16(rng.Uint32()), int16(rng.Uint32()), int16(rng.Uint32()), rng.Uint64(),
			uint16(rng.Uint32()), int(rng.Int63n(1<<20))-1<<19, rng.Uint64(), rng.Uint64(),
			uint8(rng.Uint32()), rng.Uint64()))
	}
	for i, m := range msgs {
		if got, want := Fingerprint(m), refFingerprint(m); got != want {
			t.Fatalf("message %d %+v: Fingerprint = %#x, wire-encoding hash = %#x", i, *m, got, want)
		}
	}
}

// TestFingerprintIgnoresTID pins that the TID, which is not on the wire,
// does not reach the fingerprint.
func TestFingerprintIgnoresTID(t *testing.T) {
	a := messageFromFields(uint8(GetX), 1, 2, 3, 0x40, 5, 1, 7, 8, 0, 11)
	b := *a
	b.TID = 12
	if Fingerprint(a) != Fingerprint(&b) {
		t.Fatal("messages differing only in TID have different fingerprints")
	}
}

var fingerprintSink uint64

func TestFingerprintDoesNotAllocate(t *testing.T) {
	m := messageFromFields(uint8(DataEx), 1, 2, 3, 0x40, 5, 1, 7, 8, 0x7f, 0)
	if n := testing.AllocsPerRun(100, func() { fingerprintSink = Fingerprint(m) }); n != 0 {
		t.Fatalf("Fingerprint: %.0f allocs per call, want 0", n)
	}
}

// FuzzFingerprint: for any field values, Fingerprint equals the FNV-1a hash
// of the wire encoding's header.
func FuzzFingerprint(f *testing.F) {
	f.Add(uint8(GetS), int16(1), int16(2), int16(0), uint64(0x40), uint16(1), int64(0), uint64(0), uint64(0), uint8(0), uint64(1))
	f.Add(uint8(DataEx), int16(-1), int16(3), int16(-7), uint64(math.MaxUint64), uint16(math.MaxUint16), int64(-3), uint64(math.MaxUint64), uint64(math.MaxUint64), uint8(0xff), uint64(0))
	f.Fuzz(func(t *testing.T, typ uint8, src, dst, req int16, addr uint64, sn uint16, acks int64, val, ver uint64, flags uint8, tid uint64) {
		m := messageFromFields(typ, src, dst, req, addr, sn, int(acks), val, ver, flags, tid)
		if got, want := Fingerprint(m), refFingerprint(m); got != want {
			t.Fatalf("%+v: Fingerprint = %#x, wire-encoding hash = %#x", *m, got, want)
		}
	})
}
