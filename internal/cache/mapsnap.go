package cache

// MapSnapshot holds a map's entries for Restore, as a list of pairs, so
// that restoring a map (which the model checker does once per successor
// state) inserts them without iterating a map. The zero value is an empty
// buffer; Take reuses its storage.
type MapSnapshot[K comparable, V any] struct {
	keys []K
	vals []V
}

// Take copies m's entries into s.
func (s *MapSnapshot[K, V]) Take(m map[K]V) {
	s.keys, s.vals = s.keys[:0], s.vals[:0]
	for k, v := range m {
		s.keys = append(s.keys, k)
		s.vals = append(s.vals, v)
	}
}

// Restore makes m, which must not be nil unless s is empty, hold exactly
// the entries s took.
func (s *MapSnapshot[K, V]) Restore(m map[K]V) {
	clear(m)
	for i, k := range s.keys {
		m[k] = s.vals[i]
	}
}
