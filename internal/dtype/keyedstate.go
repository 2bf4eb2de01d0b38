package dtype

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
)

// KeyedState is the state of a Keyed object: object name → inner state.
//
// It is an immutable persistent map, a hash array mapped trie: each node
// branches 32 ways on the next 5 bits of the object name's hash, storing
// only its occupied branches (a population bitmap indexes them). With and
// Without copy the root-to-leaf path, O(log₃₂ n) nodes, and share every
// other node with the map they were derived from. A state therefore never
// changes once built, which the replica relies on: it retains memoized
// prefix states while applying operations to them. Names whose 64-bit
// hashes are equal end in a collision node, searched linearly.
//
// The zero value is the empty keyspace.
type KeyedState struct {
	root *keyedNode
	n    int
}

// keyedNode is a trie node at some depth. A branch node holds one slot per
// set bit of bitmap, in bit order; a collision node (below the last hash
// level) holds leaves with identical hashes, in no particular order.
type keyedNode struct {
	bitmap uint32
	slots  []keyedSlot
}

// keyedSlot is a leaf (key, val), or a subtree when val is a *keyedNode
// (inner data types cannot produce that unexported type). Folding the
// child pointer into val keeps a slot at 32 bytes; path copying copies
// whole slot arrays, so slot size is most of the cost of an apply.
type keyedSlot struct {
	key string
	val State
}

const (
	keyedBits     = 5
	keyedMask     = 1<<keyedBits - 1
	keyedMaxShift = 60 // the last level branches on hash bits 60..63
)

var keyedSeed = maphash.MakeSeed()

// keyedHash hashes object names. It is a variable so tests can force hash
// collisions.
var keyedHash = func(key string) uint64 { return maphash.String(keyedSeed, key) }

// Len reports the number of objects.
func (m KeyedState) Len() int { return m.n }

// Get returns the named object's state.
func (m KeyedState) Get(key string) (State, bool) {
	h := keyedHash(key)
	n := m.root
	for shift := uint(0); n != nil; shift += keyedBits {
		if shift > keyedMaxShift {
			for _, s := range n.slots {
				if s.key == key {
					return s.val, true
				}
			}
			return nil, false
		}
		bit := uint32(1) << (h >> shift & keyedMask)
		if n.bitmap&bit == 0 {
			return nil, false
		}
		s := n.slots[bits.OnesCount32(n.bitmap&(bit-1))]
		sub, ok := s.val.(*keyedNode)
		if !ok {
			if s.key == key {
				return s.val, true
			}
			return nil, false
		}
		n = sub
	}
	return nil, false
}

// With returns m with the named object's state set to val. m is unchanged.
func (m KeyedState) With(key string, val State) KeyedState {
	root, added := m.root.with(key, keyedHash(key), val, 0)
	m.root = root
	if added {
		m.n++
	}
	return m
}

// Without returns m without the named object. m is unchanged.
func (m KeyedState) Without(key string) KeyedState {
	root, removed := m.root.without(key, keyedHash(key), 0)
	if removed {
		m.root = root
		m.n--
	}
	return m
}

// Range calls f for every object, in no particular order, until f returns
// false.
func (m KeyedState) Range(f func(key string, val State) bool) {
	m.root.each(f)
}

// Keys returns the object names in ascending order.
func (m KeyedState) Keys() []string {
	keys := make([]string, 0, m.n)
	m.Range(func(key string, _ State) bool {
		keys = append(keys, key)
		return true
	})
	slices.Sort(keys)
	return keys
}

// sorted returns the objects in ascending name order.
func (m KeyedState) sorted() []keyedSlot {
	out := make([]keyedSlot, 0, m.n)
	m.Range(func(key string, val State) bool {
		out = append(out, keyedSlot{key, val})
		return true
	})
	slices.SortFunc(out, func(a, b keyedSlot) int { return strings.Compare(a.key, b.key) })
	return out
}

// String renders the state exactly as fmt prints the equivalent
// map[string]State: "map[k1:v1 k2:v2]" in ascending key order. Checkers
// compare states through this form.
func (m KeyedState) String() string {
	var b strings.Builder
	b.WriteString("map[")
	for i, e := range m.sorted() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.key)
		b.WriteByte(':')
		fmt.Fprint(&b, e.val)
	}
	b.WriteByte(']')
	return b.String()
}

// with returns a copy of n (nil: empty) at the given depth with key bound
// to val, and whether key is new.
func (n *keyedNode) with(key string, h uint64, val State, shift uint) (*keyedNode, bool) {
	if shift > keyedMaxShift {
		var slots []keyedSlot
		if n != nil {
			slots = n.slots
		}
		for i, s := range slots {
			if s.key == key {
				out := &keyedNode{slots: slices.Clone(slots)}
				out.slots[i].val = val
				return out, false
			}
		}
		return &keyedNode{slots: inserted(slots, len(slots), keyedSlot{key, val})}, true
	}
	bit := uint32(1) << (h >> shift & keyedMask)
	if n == nil {
		return &keyedNode{bitmap: bit, slots: []keyedSlot{{key, val}}}, true
	}
	i := bits.OnesCount32(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		return &keyedNode{bitmap: n.bitmap | bit, slots: inserted(n.slots, i, keyedSlot{key, val})}, true
	}
	repl, added := keyedSlot{key, val}, false
	switch s := n.slots[i]; {
	case isSubtree(s):
		sub, a := s.val.(*keyedNode).with(key, h, val, shift+keyedBits)
		repl, added = keyedSlot{val: sub}, a
	case s.key != key:
		// Two names share this branch: push both one level down.
		sub, _ := (*keyedNode)(nil).with(s.key, keyedHash(s.key), s.val, shift+keyedBits)
		sub, _ = sub.with(key, h, val, shift+keyedBits)
		repl, added = keyedSlot{val: sub}, true
	}
	out := &keyedNode{bitmap: n.bitmap, slots: slices.Clone(n.slots)}
	out.slots[i] = repl
	return out, added
}

// without returns a copy of n at the given depth without key (nil when
// nothing is left), and whether key was present. A subtree left with a
// single leaf is folded into its parent's slot, so the trie is never
// deeper than the names it holds need.
func (n *keyedNode) without(key string, h uint64, shift uint) (*keyedNode, bool) {
	if n == nil {
		return nil, false
	}
	if shift > keyedMaxShift {
		i := slices.IndexFunc(n.slots, func(s keyedSlot) bool { return s.key == key })
		if i < 0 {
			return n, false
		}
		return n.remove(i, 0), true
	}
	bit := uint32(1) << (h >> shift & keyedMask)
	if n.bitmap&bit == 0 {
		return n, false
	}
	i := bits.OnesCount32(n.bitmap & (bit - 1))
	s := n.slots[i]
	if !isSubtree(s) {
		if s.key != key {
			return n, false
		}
		return n.remove(i, bit), true
	}
	sub, removed := s.val.(*keyedNode).without(key, h, shift+keyedBits)
	if !removed {
		return n, false
	}
	repl := keyedSlot{val: sub}
	if len(sub.slots) == 1 && !isSubtree(sub.slots[0]) {
		repl = sub.slots[0]
	}
	out := &keyedNode{bitmap: n.bitmap, slots: slices.Clone(n.slots)}
	out.slots[i] = repl
	return out, true
}

// remove returns a copy of n without slot i, whose bitmap bit is bit (0 in
// a collision node), or nil if that was the last slot.
func (n *keyedNode) remove(i int, bit uint32) *keyedNode {
	if len(n.slots) == 1 {
		return nil
	}
	slots := make([]keyedSlot, 0, len(n.slots)-1)
	slots = append(append(slots, n.slots[:i]...), n.slots[i+1:]...)
	return &keyedNode{bitmap: n.bitmap &^ bit, slots: slots}
}

// inserted returns a copy of slots, sized exactly, with s inserted at i.
func inserted(slots []keyedSlot, i int, s keyedSlot) []keyedSlot {
	out := make([]keyedSlot, len(slots)+1)
	copy(out, slots[:i])
	out[i] = s
	copy(out[i+1:], slots[i:])
	return out
}

func (n *keyedNode) each(f func(key string, val State) bool) bool {
	if n == nil {
		return true
	}
	for _, s := range n.slots {
		if isSubtree(s) {
			if !s.val.(*keyedNode).each(f) {
				return false
			}
		} else if !f(s.key, s.val) {
			return false
		}
	}
	return true
}

func isSubtree(s keyedSlot) bool {
	_, ok := s.val.(*keyedNode)
	return ok
}
