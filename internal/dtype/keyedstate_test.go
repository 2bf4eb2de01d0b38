package dtype

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// TestKeyedStateModel drives KeyedState and a Go map through the same
// random With/Without sequences and compares them after every step. Every
// earlier version must still read exactly its own contents at the end: the
// replica keeps memoized prefix states and applies operations to them.
// The hash variants force the deep paths: names sharing all but the top
// hash bits, long single-branch chains, and full 64-bit collisions.
func TestKeyedStateModel(t *testing.T) {
	hash := keyedHash
	variants := []struct {
		name string
		h    func(string) uint64
	}{
		{"maphash", hash},
		{"top-bits-only", func(k string) uint64 { return hash(k) >> keyedMaxShift << keyedMaxShift }},
		{"two-low-bits", func(k string) uint64 { return hash(k) & 3 }},
		{"constant", func(string) uint64 { return 0x5a5a5a5a5a5a5a5a }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			keyedHash = v.h
			defer func() { keyedHash = hash }()
			for seed := int64(1); seed <= 10; seed++ {
				runKeyedModel(t, rand.New(rand.NewSource(seed)))
			}
		})
	}
}

func runKeyedModel(t *testing.T, rng *rand.Rand) {
	t.Helper()
	names := []string{""}
	for i := 0; i < 48; i++ {
		names = append(names, fmt.Sprintf("obj-%d", i))
	}
	type version struct {
		st   KeyedState
		want map[string]State
	}
	var versions []version
	st, want := KeyedState{}, map[string]State{}
	for step := 0; step < 300; step++ {
		name := names[rng.Intn(len(names))]
		if rng.Intn(3) == 0 {
			st = st.Without(name)
			delete(want, name)
		} else {
			val := randomInnerState(rng)
			st = st.With(name, val)
			want[name] = val
		}
		checkKeyedModel(t, fmt.Sprintf("step %d", step), st, want, names)
		versions = append(versions, version{st, maps.Clone(want)})
	}
	for i, v := range versions {
		checkKeyedModel(t, fmt.Sprintf("version %d re-read", i), v.st, v.want, names)
	}
}

// randomInnerState picks an inner state of one of several shapes, so the
// String comparison covers Stringers, strings, integers and nil.
func randomInnerState(rng *rand.Rand) State {
	switch rng.Intn(5) {
	case 0:
		return int64(rng.Intn(7) - 3)
	case 1:
		return fmt.Sprintf("s%d", rng.Intn(5))
	case 2:
		return SetState{members: "a\x00b"}
	case 3:
		return BankState{enc: fmt.Sprintf("acct=%d", rng.Intn(9)+1)}
	}
	return nil
}

func checkKeyedModel(t *testing.T, at string, st KeyedState, want map[string]State, names []string) {
	t.Helper()
	if st.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", at, st.Len(), len(want))
	}
	for _, name := range names {
		got, ok := st.Get(name)
		w, wok := want[name]
		if ok != wok || got != w {
			t.Fatalf("%s: Get(%q) = %v, %v; want %v, %v", at, name, got, ok, w, wok)
		}
	}
	seen := map[string]State{}
	st.Range(func(key string, val State) bool {
		if _, dup := seen[key]; dup {
			t.Fatalf("%s: Range visits %q twice", at, key)
		}
		seen[key] = val
		return true
	})
	if !maps.Equal(seen, want) {
		t.Fatalf("%s: Range visits %v, want %v", at, seen, want)
	}
	calls := 0
	st.Range(func(string, State) bool { calls++; return false })
	if calls != min(1, len(want)) {
		t.Fatalf("%s: Range made %d calls after f returned false", at, calls)
	}
	if keys := slices.Sorted(maps.Keys(want)); !slices.Equal(st.Keys(), keys) {
		t.Fatalf("%s: Keys = %q, want %q", at, st.Keys(), keys)
	}
	if got, w := fmt.Sprint(st), fmt.Sprint(want); got != w {
		t.Fatalf("%s: state prints as %s, map prints as %s", at, got, w)
	}
	if err := checkKeyedShape(st.root, 0, true); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
}

// checkKeyedShape checks the trie invariants below n: a branch node has
// one slot per bitmap bit and every leaf sits on its own hash path; a
// collision node's leaves share one hash; a subtree (non-root) holds at
// least two objects, so removals leave no needless depth behind.
func checkKeyedShape(n *keyedNode, shift uint, root bool) error {
	if n == nil {
		return nil
	}
	if !root && len(n.slots) == 1 && !isSubtree(n.slots[0]) {
		return fmt.Errorf("subtree at shift %d holds a single leaf", shift)
	}
	if shift > keyedMaxShift {
		for _, s := range n.slots {
			if isSubtree(s) || keyedHash(s.key) != keyedHash(n.slots[0].key) {
				return fmt.Errorf("collision node holds %q, which does not collide", s.key)
			}
		}
		return nil
	}
	if bits.OnesCount32(n.bitmap) != len(n.slots) {
		return fmt.Errorf("bitmap %b for %d slots at shift %d", n.bitmap, len(n.slots), shift)
	}
	pos := 0
	for b := uint64(0); b <= keyedMask; b++ {
		if n.bitmap&(1<<b) == 0 {
			continue
		}
		s := n.slots[pos]
		pos++
		if isSubtree(s) {
			if err := checkKeyedShape(s.val.(*keyedNode), shift+keyedBits, false); err != nil {
				return err
			}
		} else if keyedHash(s.key)>>shift&keyedMask != b {
			return fmt.Errorf("%q in branch %d at shift %d", s.key, b, shift)
		}
	}
	return nil
}

// TestKeyedStateZeroValue: the zero value is the empty keyspace, and
// Without on a missing name returns the same state.
func TestKeyedStateZeroValue(t *testing.T) {
	var st KeyedState
	if st.Len() != 0 || fmt.Sprint(st) != fmt.Sprint(map[string]State(nil)) {
		t.Fatalf("zero value = %v (len %d), want empty", st, st.Len())
	}
	if _, ok := st.Get("a"); ok {
		t.Fatal("zero value holds a")
	}
	one := st.With("a", int64(1))
	if again := one.Without("b"); again != one {
		t.Fatal("Without of a missing name changed the state")
	}
	if empty := one.Without("a"); empty.Len() != 0 || empty.root != nil {
		t.Fatalf("removing the only object left %v", empty)
	}
}
