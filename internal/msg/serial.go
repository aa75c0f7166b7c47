package msg

// SerialNumber is a request serial number (paper §3.5). Serial numbers are
// encoded in a small number of bits; NewSerialSpace configures the width.
// Initial serial numbers are chosen from a per-node wrapping counter;
// reissued requests increment the previous attempt's number so that, with n
// bits, the same request must be reissued 2^n times before a stale response
// could be accepted.
type SerialNumber uint16

// SerialSpace generates and advances serial numbers within a fixed bit
// width.
type SerialSpace struct {
	mask    SerialNumber
	counter SerialNumber
}

// NewSerialSpace returns a serial-number generator using bits bits
// (1..16). The paper's configuration uses 8 bits.
func NewSerialSpace(bits int) *SerialSpace {
	if bits < 1 || bits > 16 {
		panic("msg: serial number bits out of range")
	}
	return &SerialSpace{mask: SerialNumber(1<<bits) - 1}
}

// Reset restarts the counter, so the next request draws the serial number
// a fresh space's first request does.
func (s *SerialSpace) Reset() { s.counter = 0 }

// Next returns a fresh serial number for a new request. The initial value is
// unimportant (paper: "we can choose it randomly"); a wrapping counter keeps
// the simulation deterministic.
func (s *SerialSpace) Next() SerialNumber {
	s.counter = (s.counter + 1) & s.mask
	return s.counter
}

// Reissue returns the serial number for reissuing a request whose previous
// attempt used prev: sequentially increased, wrapping within the width.
func (s *SerialSpace) Reissue(prev SerialNumber) SerialNumber {
	return (prev + 1) & s.mask
}

// Width returns the number of distinct serial numbers.
func (s *SerialSpace) Width() int { return int(s.mask) + 1 }

// Within reports whether x lies in the wrapped interval [initial, current]:
// the serial numbers a request has used across its reissues. Nodes use it
// to decide whether a ping refers to the transaction currently in their
// MSHR or to an earlier, already-satisfied one.
func (s *SerialSpace) Within(initial, current, x SerialNumber) bool {
	span := (current - initial) & s.mask
	off := (x - initial) & s.mask
	return off <= span
}
