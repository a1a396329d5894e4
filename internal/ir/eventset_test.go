package ir_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pgo/internal/ir"
)

// genSet is a quick.Generator wrapper: a random event set over ids < 200.
type genSet struct {
	events []uint8
}

func (genSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(20)
	ev := make([]uint8, n)
	for i := range ev {
		ev[i] = uint8(r.Intn(200))
	}
	return reflect.ValueOf(genSet{events: ev})
}

func (g genSet) set() ir.EventSet {
	var s ir.EventSet
	for _, e := range g.events {
		s.Add(ir.EventID(e))
	}
	return s
}

func TestEventSetBasics(t *testing.T) {
	var s ir.EventSet
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	s.Add(3)
	s.Add(100)
	s.Add(3)
	if s.Len() != 2 || !s.Contains(3) || !s.Contains(100) || s.Contains(4) {
		t.Fatalf("set = %v", s.Events())
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 1 {
		t.Fatal("remove failed")
	}
	s.Remove(999) // no-op beyond capacity
}

// Membership after Add matches a reference map implementation.
func TestEventSetMatchesMapModel(t *testing.T) {
	f := func(g genSet) bool {
		s := g.set()
		ref := map[ir.EventID]bool{}
		for _, e := range g.events {
			ref[ir.EventID(e)] = true
		}
		if s.Len() != len(ref) {
			return false
		}
		for e := range ref {
			if !s.Contains(e) {
				return false
			}
		}
		for _, e := range s.Events() {
			if !ref[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Union and Minus satisfy their set-algebra definitions.
func TestEventSetAlgebra(t *testing.T) {
	f := func(a, b genSet) bool {
		sa, sb := a.set(), b.set()
		u := sa.Union(sb)
		m := sa.Minus(sb)
		for e := ir.EventID(0); e < 220; e++ {
			if u.Contains(e) != (sa.Contains(e) || sb.Contains(e)) {
				return false
			}
			if m.Contains(e) != (sa.Contains(e) && !sb.Contains(e)) {
				return false
			}
		}
		// UnionWith is Union in place, and reports exactly whether the
		// receiver gained an element.
		w := sa.Clone()
		if grew := w.UnionWith(sb); !w.Equal(u) || grew != (u.Len() > sa.Len()) {
			return false
		}
		if w.UnionWith(sb) {
			return false
		}
		// Operands unchanged (operations are functional).
		return sa.Equal(a.set()) && sb.Equal(b.set())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Fingerprints are canonical: equal sets encode identically regardless of
// internal capacity, and unequal sets encode differently.
func TestEventSetFingerprintCanonical(t *testing.T) {
	f := func(a, b genSet) bool {
		sa, sb := a.set(), b.set()
		// Force different capacities by adding and removing a high event.
		sa2 := sa.Clone()
		sa2.Add(210)
		sa2.Remove(210)
		if !sa.Equal(sa2) {
			return false
		}
		fpA := string(sa.AppendFingerprint(nil))
		fpA2 := string(sa2.AppendFingerprint(nil))
		fpB := string(sb.AppendFingerprint(nil))
		if fpA != fpA2 {
			return false
		}
		return (fpA == fpB) == sa.Equal(sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventSetCloneIndependent(t *testing.T) {
	s := ir.NewEventSet(1, 2, 3)
	c := s.Clone()
	c.Add(64)
	c.Remove(1)
	if !s.Contains(1) || s.Contains(64) {
		t.Fatal("clone aliases original")
	}
}
