package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"esds/internal/core"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/transport"
)

// spanKind names a layer boundary the benchmark times.
type spanKind uint8

const (
	spanSubmit     spanKind = iota // core.KeyspaceClient.Submit
	spanApplyAsync                 // esds.Client.ApplyAsync
	spanCallback                   // an operation's answer callback
	spanSend                       // transport Network.Send (encodes synchronously)
	spanDeliver                    // a registered transport handler
	spanPersist                    // core.StableStore.PersistOp
	spanCommit                     // core.StableStore.Commit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"client.submit", "esds.apply_async", "client.callback",
	"transport.send", "transport.deliver", "store.persist", "store.commit"}

// span is one timed call: its kind, start and end (ns since the tracer's
// origin) and, where the benchmark knows it, the operation it served —
// spans of one operation share its id.
type span struct {
	kind       spanKind
	start, end int64
	op         ops.ID
}

// maxSpans bounds the in-memory span store; spans past it are counted but
// not kept.
const maxSpans = 1 << 19

// tracer keeps spans in memory while on and writes them out at exit.
// Recording is off until start and after stop; every wrapper checks on
// first, so an idle tracer costs one atomic load per call.
type tracer struct {
	on     atomic.Bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
	lost   int
	calls  [numSpanKinds]int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) record(k spanKind, start int64, op ops.ID) {
	end := t.now()
	t.mu.Lock()
	t.calls[k]++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{kind: k, start: start, end: end, op: op})
	} else {
		t.lost++
	}
	t.mu.Unlock()
}

// durations returns the recorded durations of one span kind, in µs, sorted.
func (t *tracer) durations(k spanKind) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.kind == k {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

func (t *tracer) count(k spanKind) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls[k]
}

// writeTo writes every kept span as a tab-separated line: kind, start ns,
// end ns, operation id.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(w, "# span\tstart_ns\tend_ns\top\t(kept %d, lost %d)\n", len(t.spans), t.lost)
	for _, s := range t.spans {
		op := "-"
		if s.op.Client != "" {
			op = s.op.String()
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", spanNames[s.kind], s.start, s.end, op)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opOf extracts the operation a message carries, for span correlation.
func opOf(payload any) ops.ID {
	switch m := payload.(type) {
	case core.RequestMsg:
		return m.Op.ID
	case core.ResponseMsg:
		return m.ID
	}
	return ops.ID{}
}

// tracedNet wraps a TCPNet, timing Send and every registered handler. It
// implements every optional interface TCPNet does — core probes the
// network for them and silently takes another path when one is missing
// (without RegisterInline, for example, replicas fall back to per-node
// mailboxes) — so a traced fleet runs the same code as an untraced one.
type tracedNet struct {
	inner *transport.TCPNet
	tr    *tracer
}

var (
	_ transport.Network           = (*tracedNet)(nil)
	_ transport.InlineRegistrar   = (*tracedNet)(nil)
	_ transport.FeatureNegotiator = (*tracedNet)(nil)
	_ transport.ShardSubscriber   = (*tracedNet)(nil)
	_ transport.FallbackRegistrar = (*tracedNet)(nil)
	_ core.PeerTable              = (*tracedNet)(nil)
)

func (n *tracedNet) wrap(h transport.Handler) transport.Handler {
	return func(m transport.Message) {
		if !n.tr.active() {
			h(m)
			return
		}
		t0 := n.tr.now()
		h(m)
		n.tr.record(spanDeliver, t0, opOf(m.Payload))
	}
}

func (n *tracedNet) Register(id transport.NodeID, h transport.Handler) {
	n.inner.Register(id, n.wrap(h))
}

func (n *tracedNet) RegisterInline(id transport.NodeID, h transport.Handler) {
	n.inner.RegisterInline(id, n.wrap(h))
}

func (n *tracedNet) RegisterFallback(h transport.Handler) { n.inner.RegisterFallback(n.wrap(h)) }

func (n *tracedNet) Send(from, to transport.NodeID, payload any) {
	if !n.tr.active() {
		n.inner.Send(from, to, payload)
		return
	}
	t0 := n.tr.now()
	n.inner.Send(from, to, payload)
	n.tr.record(spanSend, t0, opOf(payload))
}

func (n *tracedNet) AnnounceFeatures(id transport.NodeID, features uint32) {
	n.inner.AnnounceFeatures(id, features)
}

func (n *tracedNet) PeerFeatures(id transport.NodeID) uint32 { return n.inner.PeerFeatures(id) }

func (n *tracedNet) SubscribeShards(shards []int) { n.inner.SubscribeShards(shards) }

func (n *tracedNet) SetPeer(id transport.NodeID, addr string) { n.inner.SetPeer(id, addr) }

// tracedStore wraps a FileStableStore, timing PersistOp and Commit.
type tracedStore struct {
	inner *core.FileStableStore
	tr    *tracer
}

var _ core.StableStore = (*tracedStore)(nil)

func (s *tracedStore) PersistLabel(id ops.ID, l label.Label) error {
	return s.inner.PersistLabel(id, l)
}

func (s *tracedStore) PersistOp(x ops.Operation, l label.Label) error {
	if !s.tr.active() {
		return s.inner.PersistOp(x, l)
	}
	t0 := s.tr.now()
	err := s.inner.PersistOp(x, l)
	s.tr.record(spanPersist, t0, x.ID)
	return err
}

func (s *tracedStore) PersistResize(rec core.ResizeRecord) error { return s.inner.PersistResize(rec) }

func (s *tracedStore) PersistKey(id ops.ID, key string) error { return s.inner.PersistKey(id, key) }

func (s *tracedStore) Commit() error {
	if !s.tr.active() {
		return s.inner.Commit()
	}
	t0 := s.tr.now()
	err := s.inner.Commit()
	s.tr.record(spanCommit, t0, ops.ID{})
	return err
}

func (s *tracedStore) Labels() map[ops.ID]label.Label { return s.inner.Labels() }

func (s *tracedStore) Ops() []ops.Operation { return s.inner.Ops() }

func (s *tracedStore) Resizes() []core.ResizeRecord { return s.inner.Resizes() }

func (s *tracedStore) Keys() map[ops.ID]string { return s.inner.Keys() }
