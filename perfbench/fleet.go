package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/transport"
)

// Fleet geometry shared by mixed-durable and ingest-restart.
const (
	fleetMembers = 2
	fleetShards  = 4
	gossipPeriod = 10 * time.Millisecond
	retransmit   = 250 * time.Millisecond
)

// member is one fleet member wired the way cmd/esds-server wires a
// sharded replica process: its own loopback TCPNet, a ShardRuntime, a
// keyspace hosting replica id of every shard, and one fsync group-commit
// FileStableStore per shard.
type member struct {
	id     int
	net    *transport.TCPNet
	rt     *core.ShardRuntime
	ks     *core.Keyspace
	stores []*core.FileStableStore
}

// fleet is the durable TCP deployment: fleetMembers members and one client
// keyspace on its own TCPNet (one connection per member).
type fleet struct {
	dir       string
	opt       core.Options
	tr        *tracer // nil: no wrappers at all
	addrs     []string
	members   []*member
	clientNet *transport.TCPNet
	client    *core.Keyspace
	sessions  []*core.KeyspaceClient
	names     []string // object names, index = object
	perSess   int      // objects per session
	openTime  time.Duration
}

// network returns what core is given: the TCPNet itself, or its traced
// wrapper when the run traces.
func (f *fleet) network(n *transport.TCPNet) transport.Network {
	if f.tr == nil {
		return n
	}
	return &tracedNet{inner: n, tr: f.tr}
}

// newFleet builds and starts the fleet under dir.
func newFleet(dir string, opt core.Options, tr *tracer, sessions, perSession int) (*fleet, error) {
	f := &fleet{dir: dir, opt: opt, tr: tr, perSess: perSession}
	nets := make([]*transport.TCPNet, fleetMembers)
	for i := range nets {
		n, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			for _, m := range nets[:i] {
				m.Close()
			}
			return nil, err
		}
		nets[i] = n
		f.addrs = append(f.addrs, n.Addr().String())
	}
	for i, n := range nets {
		m, err := f.startMember(i, n)
		if err != nil {
			n.Close()
			f.close()
			return nil, err
		}
		f.members = append(f.members, m)
	}
	cn, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0", Peers: f.peerTable(-1)})
	if err != nil {
		f.close()
		return nil, err
	}
	f.clientNet = cn
	f.client = core.NewKeyspace(core.KeyspaceConfig{
		Shards:        fleetShards,
		Replicas:      fleetMembers,
		DataType:      dtype.Counter{},
		Network:       f.network(cn),
		Options:       opt,
		LocalReplicas: []int{},
	})
	cn.Start()
	f.client.StartLiveRetransmit(retransmit)
	if opt.BatchSize > 1 {
		f.client.StartLiveBatchFlush(opt.FlushPeriod())
	}
	for s := 0; s < sessions; s++ {
		f.sessions = append(f.sessions, f.client.Client(fmt.Sprintf("c%d", s)))
		for j := 0; j < perSession; j++ {
			f.names = append(f.names, fmt.Sprintf("c%d/o%d", s, j))
		}
	}
	return f, nil
}

// peerTable maps every shard's replica node of every member except self
// to that member's address (self = -1 for the client).
func (f *fleet) peerTable(self int) map[transport.NodeID]string {
	t := make(map[transport.NodeID]string)
	for i, addr := range f.addrs {
		if i == self {
			continue
		}
		for s := 0; s < fleetShards; s++ {
			t[core.ReplicaNodeIn(s, label.ReplicaID(i))] = addr
		}
	}
	return t
}

// startMember wires member id over n, opening (or reopening) its journals.
func (f *fleet) startMember(id int, n *transport.TCPNet) (*member, error) {
	for node, addr := range f.peerTable(id) {
		n.SetPeer(node, addr)
	}
	m := &member{id: id, net: n, rt: core.NewShardRuntime(0)}
	t0 := time.Now()
	stores := make([]core.StableStore, fleetShards)
	for s := 0; s < fleetShards; s++ {
		st, err := core.OpenFileStableStore(filepath.Join(f.dir, fmt.Sprintf("s%d-replica-%d.labels", s, id)))
		if err != nil {
			m.rt.Close()
			for _, o := range m.stores {
				o.Close()
			}
			return nil, err
		}
		m.stores = append(m.stores, st)
		stores[s] = st
		if f.tr != nil {
			stores[s] = &tracedStore{inner: st, tr: f.tr}
		}
	}
	f.openTime = time.Since(t0)
	m.ks = core.NewKeyspace(core.KeyspaceConfig{
		Shards:        fleetShards,
		Replicas:      fleetMembers,
		DataType:      dtype.Counter{},
		Network:       f.network(n),
		Options:       f.opt,
		LocalReplicas: []int{id},
		StoreFor:      func(shard, _ int) core.StableStore { return stores[shard] },
		Runtime:       m.rt,
	})
	n.Start()
	m.ks.StartLiveGossip(gossipPeriod)
	if f.opt.BatchSize > 1 {
		m.ks.StartLiveBatchFlush(f.opt.FlushPeriod())
		m.ks.StartLiveRetransmit(retransmit)
	}
	return m, nil
}

// close stops the member in the order esds-server does: keyspace, then
// transport, then workers, then the journals nothing writes any more.
func (m *member) close() {
	m.ks.Close()
	m.net.Close()
	m.rt.Close()
	for _, st := range m.stores {
		st.Close()
	}
}

func (m *member) replicas() []*core.Replica {
	var out []*core.Replica
	for s := 0; s < m.ks.NumShards(); s++ {
		out = append(out, m.ks.Shard(s).LocalReplicas()...)
	}
	return out
}

// restartMember closes member id and brings it back on the same address from
// its journals with the §9.3 recovery esds-server -recover runs: Recover
// on every replica, then RetryRecovery every two gossip periods until none
// is Recovering. It returns the whole restart time and the handshake part.
func (f *fleet) restartMember(id int, timeout time.Duration) (total, handshake time.Duration, err error) {
	f.members[id].close()
	f.members[id] = nil // closed; close skips it if the restart fails
	t0 := time.Now()
	var n *transport.TCPNet
	for {
		n, err = transport.NewTCPNet(transport.TCPConfig{Listen: f.addrs[id]})
		if err == nil {
			break
		}
		if time.Since(t0) > timeout {
			return 0, 0, fmt.Errorf("restart: rebinding %s: %w", f.addrs[id], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	m, err := f.startMember(id, n)
	if err != nil {
		n.Close()
		return 0, 0, err
	}
	f.members[id] = m
	h0 := time.Now()
	reps := m.replicas()
	for _, r := range reps {
		r.Recover()
	}
	for {
		waiting := false
		for _, r := range reps {
			if r.Recovering() {
				waiting = true
				r.RetryRecovery()
			}
		}
		if !waiting {
			break
		}
		if time.Since(t0) > timeout {
			return 0, 0, fmt.Errorf("restart: member %d still recovering after %v", id, timeout)
		}
		time.Sleep(2 * gossipPeriod)
	}
	return time.Since(t0), time.Since(h0), nil
}

func (f *fleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	if f.clientNet != nil {
		f.clientNet.Close()
	}
	for _, m := range f.members {
		if m != nil {
			m.close()
		}
	}
}

// driver interface over the client keyspace router.

func (f *fleet) objects() int { return len(f.names) }

func (f *fleet) submit(i int, op dtype.Operator, strict bool, prev []ops.ID, done func(ops.ID, dtype.Value, error)) ops.ID {
	c := f.sessions[i/f.perSess]
	wrapped := f.client.WrapOp(f.names[i], op)
	if !f.tr.active() {
		return c.Submit(wrapped, prev, strict, func(r core.Response) { done(r.ID, r.Value, r.Err) }).ID
	}
	t0 := f.tr.now()
	x := c.Submit(wrapped, prev, strict, func(r core.Response) {
		c0 := f.tr.now()
		done(r.ID, r.Value, r.Err)
		f.tr.record(spanCallback, c0, r.ID)
	})
	f.tr.record(spanSubmit, t0, x.ID)
	return x.ID
}

// counters sums the fleet's counters for per-layer deltas.
func (f *fleet) counters() counters {
	var c counters
	nets := []*transport.TCPNet{f.clientNet}
	for _, m := range f.members {
		nets = append(nets, m.net)
		c.replica.Add(m.ks.TotalMetrics())
		for _, st := range m.stores {
			syncs, recs := st.Syncs()
			c.syncs += syncs
			c.records += recs
		}
		c.faults += len(m.ks.Faults())
	}
	for _, n := range nets {
		s := n.Stats()
		c.frames += s.Sent
		c.bytes += s.Bytes
		c.flushes += s.Flushes
		c.dropped += s.Dropped
		c.foreign += s.Foreign
	}
	// FrontEnd creates a session's front end on a shard it has not used
	// yet; an idle front end sends nothing.
	for s := range f.sessions {
		for sh := 0; sh < fleetShards; sh++ {
			fm := f.client.Shard(sh).FrontEnd(fmt.Sprintf("c%d", s)).Metrics()
			c.feRequests += fm.Requests
			if fm.BatchTarget > c.batchTarget {
				c.batchTarget = fm.BatchTarget
			}
		}
	}
	c.journalBytes = dirBytes(f.dir)
	return c
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total uint64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += uint64(info.Size())
		}
	}
	return total
}
