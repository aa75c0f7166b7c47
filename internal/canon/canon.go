// Package canon produces canonical JSON and stable content hashes.
//
// The experiment-serving subsystem (internal/serve) keys its
// content-addressed result cache by a hash of the fully-resolved
// experiment request. For that key to be stable — across processes,
// releases, and whatever field order a client happened to send — the
// serialization it hashes must be canonical:
//
//   - Object keys are emitted in sorted order, recursively. Go's
//     encoding/json already sorts map keys but emits struct fields in
//     declaration order; canon re-canonicalizes the encoded form so a
//     struct and the equivalent map hash identically, and reordering
//     struct fields does not silently change every cache key. When an
//     object repeats a key, the last member wins.
//   - Numbers pass through verbatim as their original JSON text, never
//     through float64, so values like 1e21 or 0.1 cannot drift through a
//     parse/re-encode round trip.
//   - No insignificant whitespace; strings use encoding/json escaping.
//
// The canonical form is computed in one pass over encoding/json's compact
// output: numbers, literals and plain ASCII strings are copied verbatim,
// and only a string holding an escape or a non-ASCII byte is decoded and
// re-encoded. The bytes are those of decoding the output into a generic
// tree and re-encoding it with sorted keys, which canon_test.go keeps as
// the oracle.
//
// Hash returns "sha256:" plus the hex digest of the canonical bytes.
// The golden test in the repo root pins the hash of the quick-system
// configuration so accidental canonicalization changes are caught.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"unicode/utf8"
)

// Marshal returns the canonical JSON encoding of v: the encoding/json
// form of v with all object keys sorted recursively and numbers preserved
// verbatim. Values that encoding/json cannot marshal (channels, cycles,
// NaN floats) return an error.
func Marshal(v any) ([]byte, error) {
	st := states.Get().(*state)
	defer st.release()
	b, err := st.canonical(v)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// Hash returns "sha256:<hex>" over the canonical JSON encoding of v.
func Hash(v any) (string, error) {
	st := states.Get().(*state)
	defer st.release()
	b, err := st.canonical(v)
	if err != nil {
		return "", err
	}
	const prefix = "sha256:"
	sum := sha256.Sum256(b)
	var h [len(prefix) + 2*sha256.Size]byte
	copy(h[:], prefix)
	hex.Encode(h[len(prefix):], sum[:])
	return string(h[:]), nil
}

// maxDepth is encoding/json's nesting limit: a value nested deeper fails
// to re-parse, so canon refuses it with the decoder's message.
const maxDepth = 10000

// errDepth is the decoder's error for a value nested too deep.
func errDepth(open byte) error {
	return errors.New("canon: re-parse: invalid character '" + string(open) + "' exceeded max depth")
}

var errMalformed = errors.New("canon: re-parse: malformed encoding/json output")

// states recycles the buffers of one canonicalisation.
var states = sync.Pool{New: func() any {
	st := new(state)
	st.enc = json.NewEncoder(&st.raw)
	return st
}}

// state is the scratch of one canonicalisation.
type state struct {
	raw     bytes.Buffer  // encoding/json's output for the value
	enc     *json.Encoder // writes into raw, escaping HTML as json.Marshal does
	out     []byte        // the canonical bytes
	tmp     []byte        // an object's members while they are reordered
	members []member      // the members of the open objects, innermost last
}

// member is one object member: its decoded key, and its canonical
// `"key":value` bytes at out[start:end].
type member struct {
	key        []byte
	start, end int
}

// maxPooled bounds the buffers returned to the pool, so one huge value
// does not pin its scratch for the life of the process.
const maxPooled = 1 << 20

func (st *state) release() {
	if st.raw.Cap() > maxPooled || cap(st.out) > maxPooled || cap(st.tmp) > maxPooled {
		return
	}
	states.Put(st)
}

// canonical encodes v with encoding/json and returns its canonical form,
// valid until st is released.
func (st *state) canonical(v any) ([]byte, error) {
	st.raw.Reset()
	if err := st.enc.Encode(v); err != nil {
		return nil, err
	}
	raw := bytes.TrimSuffix(st.raw.Bytes(), []byte{'\n'})
	st.out, st.members = st.out[:0], st.members[:0]
	end, err := st.value(raw, 0, 0)
	if err != nil {
		return nil, err
	}
	if end != len(raw) {
		return nil, errMalformed
	}
	return st.out, nil
}

// value appends the canonical form of the value starting at raw[i], inside
// depth open arrays and objects, to out and returns the index just past
// it. raw is encoding/json output, so it is valid, compact JSON.
func (st *state) value(raw []byte, i, depth int) (int, error) {
	if i >= len(raw) {
		return 0, errMalformed
	}
	switch c := raw[i]; c {
	case '{', '[':
		if depth == maxDepth {
			return 0, errDepth(c)
		}
		if c == '{' {
			return st.object(raw, i, depth+1)
		}
		return st.array(raw, i, depth+1)
	case '"':
		end, _, err := st.str(raw, i)
		return end, err
	}
	// A number or a literal: copied verbatim up to its delimiter.
	j := i
	for j < len(raw) && raw[j] != ',' && raw[j] != ']' && raw[j] != '}' {
		j++
	}
	if j == i {
		return 0, errMalformed
	}
	st.out = append(st.out, raw[i:j]...)
	return j, nil
}

func (st *state) array(raw []byte, i, depth int) (int, error) {
	st.out = append(st.out, '[')
	i++
	if i < len(raw) && raw[i] == ']' {
		st.out = append(st.out, ']')
		return i + 1, nil
	}
	for {
		var err error
		if i, err = st.value(raw, i, depth); err != nil {
			return 0, err
		}
		if i >= len(raw) {
			return 0, errMalformed
		}
		st.out = append(st.out, raw[i])
		switch raw[i] {
		case ',':
			i++
		case ']':
			return i + 1, nil
		default:
			return 0, errMalformed
		}
	}
}

func (st *state) object(raw []byte, i, depth int) (int, error) {
	st.out = append(st.out, '{')
	i++
	base, from := len(st.members), len(st.out)
	if i < len(raw) && raw[i] == '}' {
		st.out = append(st.out, '}')
		return i + 1, nil
	}
	for {
		if i >= len(raw) || raw[i] != '"' {
			return 0, errMalformed
		}
		start := len(st.out)
		end, key, err := st.str(raw, i)
		if err != nil {
			return 0, err
		}
		if end >= len(raw) || raw[end] != ':' {
			return 0, errMalformed
		}
		st.out = append(st.out, ':')
		if i, err = st.value(raw, end+1, depth); err != nil {
			return 0, err
		}
		st.members = append(st.members, member{key, start, len(st.out)})
		if i >= len(raw) {
			return 0, errMalformed
		}
		switch raw[i] {
		case ',':
			st.out = append(st.out, ',')
			i++
		case '}':
			st.sortMembers(base, from)
			st.out = append(st.out, '}')
			return i + 1, nil
		default:
			return 0, errMalformed
		}
	}
}

// sortMembers rewrites out[from:], the members of the object whose members
// are members[base:], in key order, keeping only the last member of each
// repeated key, and pops those members.
func (st *state) sortMembers(base, from int) {
	ms := st.members[base:]
	st.members = st.members[:base]
	slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(a.key, b.key) })
	st.tmp = append(st.tmp[:0], st.out[from:]...)
	st.out = st.out[:from]
	for k, m := range ms {
		if k+1 < len(ms) && bytes.Equal(m.key, ms[k+1].key) {
			continue // a later member with this key wins
		}
		if len(st.out) > from {
			st.out = append(st.out, ',')
		}
		st.out = append(st.out, st.tmp[m.start-from:m.end-from]...)
	}
}

// str appends the canonical form of the string starting at raw[i] to out.
// It returns the index just past the closing quote and the decoded string.
// A string of plain ASCII without an escape is its own canonical form;
// any other string is decoded and re-encoded by encoding/json.
func (st *state) str(raw []byte, i int) (int, []byte, error) {
	plain := true
	j := i + 1
	for ; j < len(raw) && raw[j] != '"'; j++ {
		switch c := raw[j]; {
		case c == '\\':
			plain = false
			j++ // the escaped byte cannot end the string
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	if j >= len(raw) {
		return 0, nil, errMalformed
	}
	quoted := raw[i : j+1]
	if plain {
		st.out = append(st.out, quoted...)
		return j + 1, quoted[1 : len(quoted)-1], nil
	}
	var s string
	if err := json.Unmarshal(quoted, &s); err != nil {
		return 0, nil, errMalformed
	}
	enc, err := json.Marshal(s)
	if err != nil {
		return 0, nil, err
	}
	st.out = append(st.out, enc...)
	return j + 1, []byte(s), nil
}
