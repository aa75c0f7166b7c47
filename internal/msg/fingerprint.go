package msg

// fnv64 constants (FNV-1a), shared with the memory-image hash in
// internal/system so every fingerprint in the module speaks the same hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint condenses a message's canonical wire encoding into one
// 64-bit FNV-1a hash. It covers exactly what EncodeAppend covers — type,
// endpoints, address, serial number, requestor, ack count, flags and
// payload — and therefore excludes the TID, which is observability-only
// and differs between otherwise identical protocol states. The model
// checker (internal/mc) sums fingerprints to hash the in-flight message
// multiset, and uses them to describe delivery choices. It hashes the
// header alone: the CRC trailer is a function of the header, so computing
// it would add nothing to the hash but its cost.
func Fingerprint(m *Message) uint64 {
	var buf [wireSize]byte
	putHeader(buf[:], m)
	h := uint64(fnvOffset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}
