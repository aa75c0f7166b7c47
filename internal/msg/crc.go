package msg

import "encoding/binary"

// The paper's failure model assumes each message carries an error-detection
// code (CRC) and that corrupted messages are discarded on arrival. We model
// that explicitly: the corruption fault mode flips bits in a serialized
// message and the receiver's CRC check rejects it, which is what turns
// "corruption" into "loss" — the only fault class the protocol must handle.

// crc16Table is the CRC-16/CCITT-FALSE lookup table (poly 0x1021).
var crc16Table = buildCRC16Table()

func buildCRC16Table() [256]uint16 {
	var table [256]uint16
	const poly = 0x1021
	for i := range table {
		crc := uint16(i) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ poly
			} else {
				crc <<= 1
			}
		}
		table[i] = crc
	}
	return table
}

// CRC16 computes CRC-16/CCITT-FALSE over data.
func CRC16(data []byte) uint16 {
	crc := uint16(0xffff)
	for _, b := range data {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}

// wireSize is the serialized header size: type, src, dst, addr, sn,
// requestor, ackcount, flags, payload value, payload version.
const wireSize = 1 + 2 + 2 + 8 + 2 + 2 + 2 + 1 + 8 + 8

// Encode serializes the message and appends a CRC16 trailer. The encoding
// exists to model corruption faithfully; it is not a network protocol.
func Encode(m *Message) []byte { return EncodeAppend(nil, m) }

// EncodeAppend appends the serialized message (with its CRC16 trailer) to
// dst and returns the extended slice, analogous to strconv's Append
// functions. Callers on the fault-injection hot path reuse one scratch
// buffer across messages (EncodeAppend(buf[:0], m)) instead of allocating
// a fresh encoding per injection.
func EncodeAppend(dst []byte, m *Message) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, wireSize+2)...)
	buf := dst[start:]
	putHeader(buf, m)
	crc := CRC16(buf[:wireSize])
	binary.LittleEndian.PutUint16(buf[wireSize:], crc)
	return dst
}

// putHeader writes the wireSize-byte header of m — everything the CRC
// trailer covers — into buf[:wireSize].
func putHeader(buf []byte, m *Message) {
	_ = buf[wireSize-1]
	buf[0] = byte(m.Type)
	binary.LittleEndian.PutUint16(buf[1:], uint16(m.Src))
	binary.LittleEndian.PutUint16(buf[3:], uint16(m.Dst))
	binary.LittleEndian.PutUint64(buf[5:], uint64(m.Addr))
	binary.LittleEndian.PutUint16(buf[13:], uint16(m.SN))
	binary.LittleEndian.PutUint16(buf[15:], uint16(m.Requestor))
	binary.LittleEndian.PutUint16(buf[17:], uint16(m.AckCount))
	var flags byte
	if m.PiggybackAckO {
		flags |= 1
	}
	if m.Owner {
		flags |= 2
	}
	if m.WantData {
		flags |= 4
	}
	if m.Forwarded {
		flags |= 8
	}
	if m.Dirty {
		flags |= 16
	}
	if m.Migratory {
		flags |= 32
	}
	if m.NoPayload {
		flags |= 64
	}
	buf[19] = flags
	binary.LittleEndian.PutUint64(buf[20:], m.Payload.Value)
	binary.LittleEndian.PutUint64(buf[28:], m.Payload.Version)
}

// Decode parses a serialized message, verifying the CRC. It returns the
// message and true on success, or false when the CRC check fails (the
// message must then be discarded, exactly as the paper's receivers do).
func Decode(buf []byte) (Message, bool) {
	if len(buf) != wireSize+2 {
		return Message{}, false
	}
	want := binary.LittleEndian.Uint16(buf[wireSize:])
	if CRC16(buf[:wireSize]) != want {
		return Message{}, false
	}
	var m Message
	m.Type = Type(buf[0])
	m.Src = NodeID(int16(binary.LittleEndian.Uint16(buf[1:])))
	m.Dst = NodeID(int16(binary.LittleEndian.Uint16(buf[3:])))
	m.Addr = Addr(binary.LittleEndian.Uint64(buf[5:]))
	m.SN = SerialNumber(binary.LittleEndian.Uint16(buf[13:]))
	m.Requestor = NodeID(int16(binary.LittleEndian.Uint16(buf[15:])))
	m.AckCount = int(int16(binary.LittleEndian.Uint16(buf[17:])))
	flags := buf[19]
	m.PiggybackAckO = flags&1 != 0
	m.Owner = flags&2 != 0
	m.WantData = flags&4 != 0
	m.Forwarded = flags&8 != 0
	m.Dirty = flags&16 != 0
	m.Migratory = flags&32 != 0
	m.NoPayload = flags&64 != 0
	m.Payload.Value = binary.LittleEndian.Uint64(buf[20:])
	m.Payload.Version = binary.LittleEndian.Uint64(buf[28:])
	return m, true
}
