package ir

import "math/bits"

// EventSet is a bitset over EventIDs. The zero value is the empty set; sets
// are sized on first insertion and grow as needed.
type EventSet struct {
	words []uint64
}

// NewEventSet returns a set containing the given events.
func NewEventSet(events ...EventID) EventSet {
	var s EventSet
	for _, e := range events {
		s.Add(e)
	}
	return s
}

// Add inserts e into the set.
func (s *EventSet) Add(e EventID) {
	w := int(e) / 64
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(e) % 64)
}

// Remove deletes e from the set.
func (s *EventSet) Remove(e EventID) {
	w := int(e) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(e) % 64)
	}
}

// Contains reports whether e is in the set.
func (s EventSet) Contains(e EventID) bool {
	w := int(e) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(e)%64)) != 0
}

// Len returns the number of events in the set.
func (s EventSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (s EventSet) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s EventSet) Clone() EventSet {
	if len(s.words) == 0 {
		return EventSet{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return EventSet{words: w}
}

// UnionWith adds every element of t to s in place and reports whether s
// gained an element (what a fixpoint worklist needs to know).
func (s *EventSet) UnionWith(t EventSet) bool {
	grew := false
	for i, w := range t.words {
		for len(s.words) <= i {
			s.words = append(s.words, 0)
		}
		if w&^s.words[i] != 0 {
			s.words[i] |= w
			grew = true
		}
	}
	return grew
}

// Clear removes every element, keeping the allocated capacity.
func (s *EventSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Union returns s ∪ t as a new set.
func (s EventSet) Union(t EventSet) EventSet {
	out := s.Clone()
	out.UnionWith(t)
	return out
}

// Minus returns s \ t as a new set.
func (s EventSet) Minus(t EventSet) EventSet {
	out := s.Clone()
	for i := range out.words {
		if i < len(t.words) {
			out.words[i] &^= t.words[i]
		}
	}
	return out
}

// Equal reports whether s and t contain the same events.
func (s EventSet) Equal(t EventSet) bool {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(t.words) {
			b = t.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Events returns the members in increasing order.
func (s EventSet) Events() []EventID {
	var out []EventID
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, EventID(wi*64+b))
			w &^= 1 << uint(b)
		}
	}
	return out
}

// AppendFingerprint appends a canonical encoding of the set to buf.
func (s EventSet) AppendFingerprint(buf []byte) []byte {
	// Trim trailing zero words so logically-equal sets encode identically.
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	buf = append(buf, byte(n))
	for i := 0; i < n; i++ {
		w := s.words[i]
		buf = append(buf,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return buf
}
