package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"esds"
	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/ops"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	work    string // scratch directory for journals
}

// result is what a workload measured: operation counts, end-to-end
// metrics (untraced runs) and per-layer metrics (traced runs).
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	tr                *tracer
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// account adds one load phase's counts to the result.
func (r *result) account(lr loopResult) {
	r.attempted += lr.offered
	r.failed += lr.errored + lr.unanswered
}

const (
	warmInflight = 64 // warm-up and read-back bound on operations in flight
	drainTimeout = 20 * time.Second
	auditTimeout = 20 * time.Second
	// loadRounds is how many fresh deployments an untraced open-loop run
	// measures, each for --seconds/loadRounds: a deployment that lands in
	// a slow state moves a third of the windows, not the median.
	loadRounds = 3
)

// Workload shapes (see README.md for why each was chosen).
const (
	mixedRate       = 500.0
	mixedSessions   = 64
	mixedPerSession = 4

	wideRate       = 250.0
	wideSessions   = 256
	widePerSession = 16
	wideShards     = 4
	wideReplicas   = 3
	// Every non-strict answer on a wide shard re-applies the unstable
	// suffix, each apply copying the shard's map, so the warm-up keeps
	// few adds in flight.
	wideWarmInflight = 8

	ingestBatch    = 64
	ingestSessions = 64
	ingestPerSess  = 4
	ingestOps      = 7500
	// 256 in flight put the answer p99 at the 250 ms retransmission
	// interval: a third of all requests were retransmissions, and
	// throughput halved and swung ±25% between runs. At 128, every answer
	// re-applied a longer unstable suffix (16–20 applies per add against
	// about 9 at 64) and the work per add moved with it from round to
	// round, so round times ranged 2.5–5.9 s.
	ingestInflight = 64
)

var (
	mixedMix = mix{add: 0.75, read: 0.20}
	wideMix  = mix{add: 0.50, read: 0.20}
)

// phase measures one load phase: process samples and counters around it,
// the replica backlog when the window closes, and (traced) the CPU
// profile and tracer.
type phase struct {
	before, after procSample
	c0, c1        counters
	pendingAtEnd  int
	profile       []byte
}

// runPhase runs load between counter snapshots, with tracing and CPU
// profiling switched on around it when tr is non-nil.
func runPhase(tr *tracer, snap func() counters, load func(atWindowEnd func()) loopResult) (phase, loopResult, error) {
	var ph phase
	var prof bytes.Buffer
	ph.c0 = snap()
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return ph, loopResult{}, fmt.Errorf("cpu profile: %w", err)
		}
		tr.on.Store(true)
	}
	ph.before = sampleProc()
	lr := load(func() { ph.pendingAtEnd = snap().replica.PendingOps })
	ph.after = sampleProc()
	if tr != nil {
		tr.on.Store(false)
		pprof.StopCPUProfile()
		ph.profile = prof.Bytes()
	}
	ph.c1 = snap()
	logf("phase: offered %d answered %d errored %d unanswered %d pending-at-end %d in %v; %.3f client requests/op, %.3f ms cpu/op, fast p50 %.3f ms",
		lr.offered, lr.answered, lr.errored, lr.unanswered, ph.pendingAtEnd, lr.elapsed.Round(time.Millisecond),
		perOp(ph.c1.feRequests-ph.c0.feRequests, lr.answered), ph.cpuMsPerOp(lr.answered), quantile(sampleMs(lr.lat.fast), 0.5))
	return ph, lr, nil
}

func (ph phase) cpuMsPerOp(answered int) float64 {
	return ratio(ms(ph.after.cpu-ph.before.cpu), float64(answered))
}

// layerMetrics fills the per-layer metrics of a traced phase; dir holds
// the CPU profile while it is attributed.
func layerMetrics(r *result, ph phase, lr loopResult, untracedCPU float64, dir string) error {
	n := lr.answered
	d := ph.c1
	c0 := ph.c0
	m := r.layer
	tr := r.tr
	m["gen.late_p99_ms"] = quantile(lr.lateMs, 0.99)
	m["gen.fail_frac"] = ratio(float64(lr.errored+lr.unanswered), float64(lr.offered))
	m["gen.unanswered"] = float64(lr.unanswered)
	m["esds.apply_async_us_p50"] = median(tr.durations(spanApplyAsync))
	m["client.submit_us_p50"] = median(tr.durations(spanSubmit))
	m["client.requests_per_op"] = perOp(d.feRequests-c0.feRequests, n)
	m["client.batch_target"] = float64(d.batchTarget)
	send := tr.durations(spanSend)
	m["transport.send_us_p50"] = quantile(send, 0.5)
	m["transport.send_us_p99"] = quantile(send, 0.99)
	m["transport.deliver_us_p50"] = median(tr.durations(spanDeliver))
	m["transport.frames_per_op"] = perOp(d.frames-c0.frames, n)
	m["transport.bytes_per_op"] = perOp(d.bytes-c0.bytes, n)
	m["transport.frames_per_flush"] = ratio(float64(d.frames-c0.frames), float64(d.flushes-c0.flushes))
	m["transport.dropped"] = float64(d.dropped - c0.dropped)
	rm, rm0 := d.replica, c0.replica
	m["runtime.msgs_per_run"] = ratio(float64(rm.RequestsReceived+rm.GossipReceived-rm0.RequestsReceived-rm0.GossipReceived),
		float64(rm.PipelineRuns-rm0.PipelineRuns))
	m["replica.requests_per_op"] = perOp(rm.RequestsReceived-rm0.RequestsReceived, n)
	m["replica.doit_per_op"] = perOp(rm.DoItCount-rm0.DoItCount, n)
	m["replica.applies_per_op"] = perOp(rm.AppliesForResponse+rm.AppliesForMemoize+rm.AppliesForCurrentState-
		rm0.AppliesForResponse-rm0.AppliesForMemoize-rm0.AppliesForCurrentState, n)
	m["replica.gossip_sent_per_op"] = perOp(rm.GossipSent-rm0.GossipSent, n)
	m["replica.gossip_suppressed_frac"] = ratio(float64(rm.GossipSuppressed-rm0.GossipSuppressed),
		float64(rm.GossipSent+rm.GossipSuppressed-rm0.GossipSent-rm0.GossipSuppressed))
	m["replica.pending_ops"] = float64(ph.pendingAtEnd)
	m["replica.retained_ops"] = float64(rm.RetainedOps)
	m["replica.faults"] = float64(rm.Faults)
	m["store.persist_us_p50"] = median(tr.durations(spanPersist))
	commit := tr.durations(spanCommit)
	m["store.commit_ms_p50"] = quantile(commit, 0.5) / 1e3
	m["store.commit_ms_p99"] = quantile(commit, 0.99) / 1e3
	m["store.commits_per_op"] = perOp(uint64(len(commit)), n)
	m["store.records_per_sync"] = ratio(float64(d.records-c0.records), float64(d.syncs-c0.syncs))
	m["store.journal_bytes_per_op"] = perOp(d.journalBytes-c0.journalBytes, n)
	m["go.allocs_per_op"] = perOp(ph.after.mallocs-ph.before.mallocs, n)
	m["go.alloc_bytes_per_op"] = perOp(ph.after.alloc-ph.before.alloc, n)
	m["go.gc_cpu_frac"] = ratio(ph.after.gcCPU-ph.before.gcCPU, ph.after.totalCPU-ph.before.totalCPU)
	cpu, err := attribute(ph.profile, dir)
	if err != nil {
		return err
	}
	for layer, v := range cpu {
		m["cpu."+layer] = ratio(v, float64(n))
	}
	m["trace.overhead_frac"] = ratio(ph.cpuMsPerOp(n), untracedCPU) - 1
	return nil
}

// settle waits, as the last step of set-up, until the replicas are idle:
// nothing pending and memoization no longer advancing between two samples
// — the warm-up's stabilization and memoization work is finished, so the
// measured window does not inherit it.
func settle(snap func() counters, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	prev := snap().replica
	for {
		time.Sleep(50 * time.Millisecond)
		cur := snap().replica
		if cur.PendingOps == 0 && cur.AppliesForMemoize == prev.AppliesForMemoize && cur.StableOps == prev.StableOps {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: replicas still busy after %v (%d pending)", timeout, cur.PendingOps)
		}
		prev = cur
	}
}

// checkHealth is the per-run health audit: no replica fault, no foreign
// gossip frame.
func checkHealth(c counters) error {
	if c.faults > 0 || c.replica.Faults > 0 {
		return fmt.Errorf("audit: %d replica faults recorded", max(c.faults, int(c.replica.Faults)))
	}
	if c.foreign > 0 {
		return fmt.Errorf("audit: %d foreign gossip frames", c.foreign)
	}
	return nil
}

// ---- rounds ----

// deployment is one workload's running system, set up and warm.
type deployment interface {
	driver
	counters() counters
	// restart restarts member i — or, for a system without durable state,
	// the whole service, re-warming it into a reset ledger b.
	restart(i int, b *book) (restartTimes, error)
	close()
}

// restartTimes splits one restart: the whole of it, the §9.3 handshake
// part, and the journal-open part. cold marks a restart that kept no
// state, after which there is nothing to audit.
type restartTimes struct {
	total, handshake, open time.Duration
	cold                   bool
}

// spec describes a workload as rounds on fresh deployments.
type spec struct {
	// build deploys the system under dir, warms it and waits until idle.
	build func(tr *tracer, dir string) (deployment, *book, error)
	// load returns the round's load phase for a seed and window.
	load func(d deployment, b *book, seed int64, window time.Duration) func(atWindowEnd func()) loopResult
	// rounds is the number of untraced rounds, each measuring
	// --seconds/rounds; 0 repeats fixed-work rounds until --seconds pass.
	rounds int
	// restarts per round, alternating members.
	restarts int
	// strictFromAudits reports the read-back audits' latencies as the
	// strict metrics (a write-only load issues no strict operation).
	strictFromAudits bool
}

// round is one fresh deployment: set up, load, audit, restart, audit
// again, torn down.
type round struct {
	setup              float64
	ph                 phase
	lr                 loopResult
	heapMB             float64
	restarts           []restartTimes
	strict50, strict99 []float64 // one per read-back audit
}

// runRound runs one round; a non-nil tr wraps the deployment's layers and
// traces its load phase.
func runRound(cfg runConfig, sp spec, tr *tracer, first bool, seed int64, window time.Duration) (round, error) {
	var rd round
	t0 := time.Now()
	if first {
		t0 = processStart
	}
	dir, err := os.MkdirTemp(cfg.work, "round-")
	if err != nil {
		return rd, err
	}
	defer os.RemoveAll(dir)
	d, b, err := sp.build(tr, dir)
	if err != nil {
		return rd, err
	}
	defer d.close()
	rd.setup = time.Since(t0).Seconds()
	logf("set-up: %.3fs", rd.setup)
	rd.ph, rd.lr, err = runPhase(tr, d.counters, sp.load(d, b, seed, window))
	if err != nil {
		return rd, err
	}
	rd.heapMB = liveHeapMB()
	audit := func() error {
		lat := newLatRec()
		if err := readBack(d, b, nil, warmInflight, auditTimeout, lat); err != nil {
			return err
		}
		rd.strict50 = append(rd.strict50, quantile(sampleMs(lat.strict), 0.5))
		rd.strict99 = append(rd.strict99, quantile(sampleMs(lat.strict), 0.99))
		return nil
	}
	if err := audit(); err != nil {
		return rd, err
	}
	for i := 0; i < sp.restarts; i++ {
		rt, err := d.restart(i%fleetMembers, b)
		if err != nil {
			return rd, err
		}
		logf("restart %d: %v", i, rt.total.Round(time.Millisecond))
		rd.restarts = append(rd.restarts, rt)
		if rt.cold {
			continue
		}
		if err := audit(); err != nil {
			return rd, fmt.Errorf("after restart %d: %w", i, err)
		}
	}
	if err := b.bad; err != nil {
		return rd, err
	}
	return rd, checkHealth(d.counters())
}

// runSpec runs a workload's rounds and reduces them to its metrics. An
// untraced run reports medians over rounds (set-up, restarts, heap) and
// over every round's windows (latency, CPU, throughput). A traced run
// is one untraced and one traced round on fresh deployments: the traced
// one gives the per-layer metrics, the untraced one — built without any
// wrapper — the CPU baseline of the tracing overhead.
func runSpec(cfg runConfig, sp spec) (*result, error) {
	r := newResult()
	total := time.Duration(cfg.seconds) * time.Second
	window := total
	if sp.rounds > 0 {
		window = total / time.Duration(sp.rounds)
	}
	if cfg.trace {
		r.tr = newTracer()
		var rds [2]round
		for i, tr := range []*tracer{nil, r.tr} {
			rd, err := runRound(cfg, sp, tr, i == 0, cfg.seed<<8+int64(i), total/2)
			if err != nil {
				return nil, err
			}
			r.account(rd.lr)
			rds[i] = rd
		}
		base := rds[0].ph.cpuMsPerOp(rds[0].lr.answered)
		if err := layerMetrics(r, rds[1].ph, rds[1].lr, base, cfg.work); err != nil {
			return nil, err
		}
		var hs, opens []float64
		for _, rt := range rds[1].restarts {
			hs, opens = append(hs, rt.handshake.Seconds()), append(opens, rt.open.Seconds())
		}
		r.layer["store.recovery_handshake_s"] = median(hs)
		r.layer["store.open_s"] = median(opens)
		r.layer["gen.fast_p99_ms"] = median(windowQuantiles(rds[1].lr.lat.fast, 0.99))
		r.layer["gen.strict_p99_ms"] = median(windowQuantiles(rds[1].lr.lat.strict, 0.99))
		if sp.strictFromAudits {
			r.layer["gen.strict_p99_ms"] = median(rds[1].strict99)
		}
		return r, nil
	}
	var rds []round
	start := time.Now()
	for i := 0; (sp.rounds > 0 && i < sp.rounds) || (sp.rounds == 0 && (i == 0 || time.Since(start) < total)); i++ {
		rd, err := runRound(cfg, sp, nil, i == 0, cfg.seed<<8+int64(i), window)
		if err != nil {
			return nil, err
		}
		r.account(rd.lr)
		rds = append(rds, rd)
	}
	// Latency, CPU and throughput are medians over every window of every
	// round; set-up, heap and restart times over rounds and restarts.
	var setup, heap, rec, fast50, strict50, audit50, cpu, rate []float64
	for _, rd := range rds {
		setup = append(setup, rd.setup)
		heap = append(heap, rd.heapMB)
		for _, rt := range rd.restarts {
			rec = append(rec, rt.total.Seconds())
		}
		audit50 = append(audit50, rd.strict50...)
		fast50 = append(fast50, windowQuantiles(rd.lr.lat.fast, 0.5)...)
		strict50 = append(strict50, windowQuantiles(rd.lr.lat.strict, 0.5)...)
		cpu = append(cpu, rd.lr.cpuPerOp...)
		rate = append(rate, rd.lr.rate...)
	}
	if sp.strictFromAudits {
		strict50 = audit50
	}
	for _, m := range []struct {
		name string
		xs   []float64
	}{
		{"setup_s", setup},
		{"fast_p50_ms", fast50},
		{"strict_p50_ms", strict50},
		{"cpu_ms_per_op", cpu},
		{"heap_mb", heap},
		{"ingest_ops_s", rate},
		{"recover_s", rec},
	} {
		if len(m.xs) == 0 {
			return nil, fmt.Errorf("metric %s has no samples", m.name)
		}
		r.e2e[m.name] = median(m.xs)
	}
	return r, nil
}

// openLoad is the load of the open-loop workloads: a seeded Poisson
// schedule at rate.
func openLoad(rate float64, m mix) func(deployment, *book, int64, time.Duration) func(func()) loopResult {
	return func(d deployment, b *book, seed int64, window time.Duration) func(func()) loopResult {
		sched := schedule(seed, rate, window, d.objects(), m)
		return func(atEnd func()) loopResult { return openLoop(d, b, sched, window, drainTimeout, atEnd) }
	}
}

// ---- mixed-durable and ingest-restart: the durable TCP fleet ----

// buildFleet deploys a fleet with opt, warms every object and settles.
func buildFleet(opt core.Options, sessions, perSession int) func(*tracer, string) (deployment, *book, error) {
	return func(tr *tracer, dir string) (deployment, *book, error) {
		f, err := newFleet(dir, opt, tr, sessions, perSession)
		if err != nil {
			return nil, nil, err
		}
		b := newBook(f.objects())
		if err := warmUp(f, b, warmInflight, drainTimeout); err == nil {
			err = settle(f.counters, drainTimeout)
		}
		if err != nil {
			f.close()
			return nil, nil, err
		}
		return f, b, nil
	}
}

func (f *fleet) restart(i int, _ *book) (restartTimes, error) {
	total, handshake, err := f.restartMember(i, auditTimeout)
	return restartTimes{total: total, handshake: handshake, open: f.openTime}, err
}

func mixedOptions() core.Options { return core.DefaultOptions() }

func ingestOptions() core.Options {
	opt := core.DefaultOptions()
	opt.BatchSize = ingestBatch
	return opt
}

var mixedDurable = spec{
	build:    buildFleet(mixedOptions(), mixedSessions, mixedPerSession),
	load:     openLoad(mixedRate, mixedMix),
	rounds:   loadRounds,
	restarts: 3,
}

var ingestRestart = spec{
	build: buildFleet(ingestOptions(), ingestSessions, ingestPerSess),
	load: func(d deployment, b *book, _ int64, _ time.Duration) func(func()) loopResult {
		return func(atEnd func()) loopResult {
			return closedLoop(d, b, ingestOps, ingestInflight, drainTimeout, atEnd)
		}
	},
	restarts:         fleetMembers,
	strictFromAudits: true,
}

// ---- embedded-wide ----

// embedded drives a sharded esds.Service through its public API.
type embedded struct {
	svc     *esds.Service
	clients []*esds.Client
	tr      *tracer
}

func newEmbedded(tr *tracer, sessions, perSession int) (*embedded, error) {
	svc, err := esds.New(esds.Config{Shards: wideShards, Replicas: wideReplicas, DataType: esds.Counter()})
	if err != nil {
		return nil, err
	}
	e := &embedded{svc: svc, tr: tr}
	for s := 0; s < sessions; s++ {
		for j := 0; j < perSession; j++ {
			e.clients = append(e.clients, svc.Object(fmt.Sprintf("c%d/o%d", s, j)).Client(fmt.Sprintf("c%d", s)))
		}
	}
	return e, nil
}

func (e *embedded) objects() int { return len(e.clients) }

func (e *embedded) submit(i int, op dtype.Operator, strict bool, prev []ops.ID, done func(ops.ID, dtype.Value, error)) ops.ID {
	if !e.tr.active() {
		return e.clients[i].ApplyAsync(op, strict, prev, func(r esds.Response) { done(r.ID, r.Value, r.Err) })
	}
	t0 := e.tr.now()
	id := e.clients[i].ApplyAsync(op, strict, prev, func(r esds.Response) {
		c0 := e.tr.now()
		done(r.ID, r.Value, r.Err)
		e.tr.record(spanCallback, c0, r.ID)
	})
	e.tr.record(spanApplyAsync, t0, id)
	return id
}

func (e *embedded) counters() counters {
	return counters{replica: e.svc.Metrics(), faults: len(e.svc.Faults())}
}

func (e *embedded) close() { e.svc.Close() }

// warm touches every object once and waits until the replicas are idle.
func (e *embedded) warm(b *book) error {
	if err := warmUp(e, b, wideWarmInflight, drainTimeout); err != nil {
		return err
	}
	return settle(e.counters, drainTimeout)
}

// restart is a cold start: the embedded service keeps no durable state,
// so a restart is a new service, timed until every object answers again.
// The ledger starts over with it.
func (e *embedded) restart(_ int, b *book) (restartTimes, error) {
	e.svc.Close()
	t0 := time.Now()
	ne, err := newEmbedded(e.tr, wideSessions, widePerSession)
	if err != nil {
		return restartTimes{}, err
	}
	*e = *ne
	*b = *newBook(e.objects())
	if err := e.warm(b); err != nil {
		return restartTimes{}, err
	}
	return restartTimes{total: time.Since(t0), cold: true}, nil
}

var embeddedWide = spec{
	build: func(tr *tracer, _ string) (deployment, *book, error) {
		e, err := newEmbedded(tr, wideSessions, widePerSession)
		if err != nil {
			return nil, nil, err
		}
		b := newBook(e.objects())
		if err := e.warm(b); err != nil {
			e.close()
			return nil, nil, err
		}
		return e, b, nil
	},
	load:     openLoad(wideRate, wideMix),
	rounds:   loadRounds,
	restarts: 1,
}

// scratchDir is where journals live during a run.
func scratchDir(out string) (string, error) {
	dir := filepath.Join(out, "work")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
