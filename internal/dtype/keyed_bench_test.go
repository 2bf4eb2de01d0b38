package dtype

import (
	"fmt"
	"testing"
)

var keyedBenchSink State

// BenchmarkKeyedApply measures one τ on a keyspace shard holding n
// objects: an add to one object, threaded through the state the way a
// replica advances its memoized state. The cost should grow with the
// depth of the state's trie, not with n.
func BenchmarkKeyedApply(b *testing.B) {
	for _, n := range []int{8, 64, 1024, 16384} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			k := NewKeyed(Counter{})
			keys := make([]string, n)
			s := k.Initial()
			for i := range keys {
				keys[i] = fmt.Sprintf("obj-%d", i)
				s, _ = k.Apply(s, KeyedOp{Key: keys[i], Op: CtrAdd{N: 1}})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, _ = k.Apply(s, KeyedOp{Key: keys[i%n], Op: CtrAdd{N: 1}})
			}
			keyedBenchSink = s
		})
	}
}
