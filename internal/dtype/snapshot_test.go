package dtype

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// snapshotCases enumerates every registered serial type plus its keyed
// lift — the registry-driven shape keeps a future data type from shipping
// without snapshot coverage (adding it to builtin makes these tests cover
// it, or fail loudly if it lacks a Snapshotter).
func snapshotCases(t *testing.T) []DataType {
	t.Helper()
	var out []DataType
	for _, name := range Names() {
		dt, ok := ByName(name)
		if !ok {
			t.Fatalf("registry lists %q but ByName fails", name)
		}
		out = append(out, dt, NewKeyed(dt))
	}
	return out
}

func TestEveryRegisteredTypeSupportsSnapshots(t *testing.T) {
	for _, dt := range snapshotCases(t) {
		if !CanSnapshot(dt) {
			t.Errorf("%s: no snapshot encoding — recovery with pruning cannot serve this type", dt.Name())
		}
	}
}

// TestSnapshotterRoundTripProperty drives random operation sequences
// through every registered type and checks, at every prefix cut, that the
// encoded-and-decoded state is behaviourally identical to the original:
// identical bytes on re-encoding, and identical (state, value) results for
// the remaining suffix applied to both.
func TestSnapshotterRoundTripProperty(t *testing.T) {
	const (
		runs    = 40
		histLen = 25
	)
	for _, dt := range snapshotCases(t) {
		dt := dt
		t.Run(dt.Name(), func(t *testing.T) {
			sn, ok := dt.(Snapshotter)
			if !ok {
				t.Fatalf("%s does not implement Snapshotter", dt.Name())
			}
			for run := 0; run < runs; run++ {
				rng := rand.New(rand.NewSource(int64(run)))
				ops := make([]Operator, histLen)
				for i := range ops {
					ops[i] = RandomOp(rng, dt)
				}
				st := dt.Initial()
				for cut := 0; cut <= len(ops); cut++ {
					enc, err := sn.EncodeState(st)
					if err != nil {
						t.Fatalf("run %d cut %d: encode: %v", run, cut, err)
					}
					dec, err := sn.DecodeState(enc)
					if err != nil {
						t.Fatalf("run %d cut %d: decode: %v", run, cut, err)
					}
					enc2, err := sn.EncodeState(dec)
					if err != nil {
						t.Fatalf("run %d cut %d: re-encode: %v", run, cut, err)
					}
					if string(enc2) != string(enc) {
						t.Fatalf("run %d cut %d: encoding not canonical: % x vs % x", run, cut, enc2, enc)
					}
					// Behavioural equality: the suffix applied to both states
					// yields identical values and final states.
					a, b := st, dec
					for i := cut; i < len(ops); i++ {
						var va, vb Value
						a, va = dt.Apply(a, ops[i])
						b, vb = dt.Apply(b, ops[i])
						if fmt.Sprint(va) != fmt.Sprint(vb) {
							t.Fatalf("run %d cut %d op %d (%v): value %v via snapshot, %v direct",
								run, cut, i, ops[i], vb, va)
						}
					}
					if fmt.Sprint(a) != fmt.Sprint(b) {
						t.Fatalf("run %d cut %d: final states diverge:\n direct:   %v\n snapshot: %v", run, cut, a, b)
					}
					if cut < len(ops) {
						st, _ = dt.Apply(st, ops[cut])
					}
				}
			}
		})
	}
}

// garbageSnapshots are non-canonical encodings every decoder must reject.
// They also seed FuzzKeyedDecodeState.
var garbageSnapshots = []struct {
	dt   DataType
	data []byte
}{
	{Counter{}, []byte("short")},
	{Set{}, []byte("b\x00a")},                                                  // unsorted members
	{Set{}, []byte("e1\x00e1")},                                                // duplicate members
	{Bank{}, []byte("nosign")},                                                 // entry without '='
	{Bank{}, []byte("a=0")},                                                    // zero balance is non-canonical
	{Bank{}, []byte("b=1\x00a=2")},                                             // unsorted accounts
	{Directory{}, []byte("plain")},                                             // no \x01 separator
	{Directory{}, []byte("n\x01kv")},                                           // attribute without '='
	{Directory{}, []byte("b\x01\x00a\x01")},                                    // unsorted names
	{NewKeyed(Counter{}), []byte{0xff}},                                        // truncated varint payload
	{NewKeyed(Counter{}), append([]byte{1, 'k'}, 3, 0, 0, 0)},                  // truncated inner state
	{NewKeyed(Counter{}), append([]byte{0x81, 0, 'k', 8}, make([]byte, 8)...)}, // non-minimal length varint
	{NewKeyed(Counter{}), append(keyedFrame("b", make([]byte, 8)), keyedFrame("a", make([]byte, 8))...)}, // unsorted keys
	{NewKeyed(Counter{}), append(keyedFrame("a", make([]byte, 8)), keyedFrame("a", make([]byte, 8))...)}, // duplicate keys
}

// keyedFrame is the keyed snapshot encoding of one object.
func keyedFrame(key string, inner []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(key)))
	out = append(out, key...)
	out = binary.AppendUvarint(out, uint64(len(inner)))
	return append(out, inner...)
}

// TestSnapshotterRejectsGarbage: decoders must fail on non-canonical
// input rather than construct ill-formed states.
func TestSnapshotterRejectsGarbage(t *testing.T) {
	for _, tc := range garbageSnapshots {
		sn := tc.dt.(Snapshotter)
		if st, err := sn.DecodeState(tc.data); err == nil {
			t.Errorf("%s: decoded garbage %q as %v", tc.dt.Name(), tc.data, st)
		}
	}
}

// keyedGoldenHex is the keyed counter snapshot of TestKeyedSnapshotGoldenBytes's
// state, as the map-based representation encoded it.
const keyedGoldenHex = "0008000000000000000105616c70686108fffffffffffffffd046265746108000000000000000007636172743a343208000000000000000a047a657461080000010000000000"

// TestKeyedSnapshotGoldenBytes pins the keyed snapshot encoding of a fixed
// multi-object state. Snapshot install and range catch-up carry these
// bytes between replicas, so they must not depend on how KeyedState is
// represented in memory.
func TestKeyedSnapshotGoldenBytes(t *testing.T) {
	const text = "map[:1 alpha:-3 beta:0 cart:42:10 zeta:1099511627776]"
	k := NewKeyed(Counter{})
	s := k.Initial()
	for _, op := range []KeyedOp{
		{Key: "cart:42", Op: CtrAdd{N: 5}},
		{Key: "alpha", Op: CtrAdd{N: -3}},
		{Key: "", Op: CtrAdd{N: 1}},
		{Key: "zeta", Op: CtrAdd{N: 1 << 40}},
		{Key: "cart:42", Op: CtrDouble{}},
		{Key: "beta", Op: CtrRead{}},
	} {
		s, _ = k.Apply(s, op)
	}
	enc, err := k.EncodeState(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(enc); got != keyedGoldenHex {
		t.Fatalf("encoding changed:\n got  %s\n want %s", got, keyedGoldenHex)
	}
	if got := fmt.Sprint(s); got != text {
		t.Fatalf("state prints as %s, want %s", got, text)
	}
	dec, err := k.DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(dec); got != text {
		t.Fatalf("decoded state prints as %s, want %s", got, text)
	}
}

// FuzzKeyedDecodeState feeds arbitrary bytes to the keyed decoder of every
// registered type. Decoding must never panic, and an accepted input must be
// canonical: it re-encodes to exactly the same bytes.
func FuzzKeyedDecodeState(f *testing.F) {
	for _, g := range garbageSnapshots {
		f.Add(g.data)
		f.Add(keyedFrame("k", g.data)) // the same bytes as one object's state
	}
	golden, _ := hex.DecodeString(keyedGoldenHex)
	f.Add(golden)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range Names() {
			dt, _ := ByName(name)
			k := NewKeyed(dt)
			st, err := k.DecodeState(data)
			if err != nil {
				continue
			}
			enc, err := k.EncodeState(st)
			if err != nil {
				t.Fatalf("%s: re-encoding accepted input %q: %v", k.Name(), data, err)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("%s: accepted %q, re-encodes as %q", k.Name(), data, enc)
			}
		}
	})
}

// TestKeyedSnapshotRequiresSnapshottableInner: the keyed lift reports and
// fails cleanly when its inner type has no encoding.
func TestKeyedSnapshotRequiresSnapshottableInner(t *testing.T) {
	k := NewKeyed(opaqueType{})
	if CanSnapshot(k) {
		t.Fatal("CanSnapshot true for keyed lift of a non-snapshottable type")
	}
	if _, err := k.EncodeState(KeyedState{}); err == nil {
		t.Fatal("EncodeState succeeded without an inner Snapshotter")
	}
	if _, err := k.DecodeState(nil); err == nil {
		t.Fatal("DecodeState succeeded without an inner Snapshotter")
	}
}

// opaqueType is a DataType without a Snapshotter.
type opaqueType struct{}

func (opaqueType) Name() string                             { return "opaque" }
func (opaqueType) Initial() State                           { return 0 }
func (opaqueType) Apply(s State, _ Operator) (State, Value) { return s, "ok" }
