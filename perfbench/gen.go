package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"esds/internal/dtype"
	"esds/internal/ops"
)

// opKind is one generated operation's type.
type opKind uint8

const (
	kindAdd    opKind = iota // non-strict add(1)
	kindRead                 // non-strict read
	kindStrict               // strict read after the session's last acknowledged add
)

// arrival is one scheduled operation of an open-loop run: when it is due
// (from the start of the window), on which object, and of which kind.
type arrival struct {
	due  time.Duration
	obj  int32
	kind opKind
}

// mix is the share of adds and non-strict reads; the rest are strict reads.
type mix struct{ add, read float64 }

// schedule draws a Poisson arrival process at rate ops/s over window from
// seed: exponential gaps, a uniformly chosen object among objects, and a
// kind drawn from m. The same seed gives the same schedule.
func schedule(seed int64, rate float64, window time.Duration, objects int, m mix) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, 0, int(rate*window.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		a := arrival{due: due, obj: int32(rng.Intn(objects))}
		switch u := rng.Float64(); {
		case u < m.add:
			a.kind = kindAdd
		case u < m.add+m.read:
			a.kind = kindRead
		default:
			a.kind = kindStrict
		}
		out = append(out, a)
	}
}

// driver submits one operation on object i and arranges for done to run
// exactly once with its outcome. Implementations wrap the two client
// surfaces: the core keyspace router (TCP fleets) and the public esds API.
type driver interface {
	submit(i int, op dtype.Operator, strict bool, prev []ops.ID, done func(ops.ID, dtype.Value, error)) ops.ID
	objects() int
}

// book is the correctness ledger of a run: per object, how many adds were
// submitted and acknowledged, the acknowledged ids (the read-back's prev
// set) and the last one (a strict read's prev). Reads are checked against
// it as they complete; the first violation is kept.
type book struct {
	mu        sync.Mutex
	submitted []int64
	acked     []int64
	addIDs    [][]ops.ID
	bad       error
}

func newBook(objects int) *book {
	return &book{
		submitted: make([]int64, objects),
		acked:     make([]int64, objects),
		addIDs:    make([][]ops.ID, objects),
	}
}

// lastAck returns the prev set of a strict read on obj.
func (b *book) lastAck(obj int) []ops.ID {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ids := b.addIDs[obj]; len(ids) > 0 {
		return []ops.ID{ids[len(ids)-1]}
	}
	return nil
}

func (b *book) noteSubmit(obj int) {
	b.mu.Lock()
	b.submitted[obj]++
	b.mu.Unlock()
}

func (b *book) noteAdd(obj int, id ops.ID) {
	b.mu.Lock()
	b.acked[obj]++
	b.addIDs[obj] = append(b.addIDs[obj], id)
	b.mu.Unlock()
}

// noteRead checks a read's value: a counter that never exceeds the adds
// submitted on the object, and at least 1 when the read was ordered after
// an acknowledged add.
func (b *book) noteRead(obj int, v dtype.Value, constrained bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, ok := v.(int64)
	switch {
	case !ok:
		b.failLocked(fmt.Errorf("object %d: read returned %T, want int64", obj, v))
	case n < 0 || n > b.submitted[obj]:
		b.failLocked(fmt.Errorf("object %d: read %d outside [0, %d submitted adds]", obj, n, b.submitted[obj]))
	case constrained && n < 1:
		b.failLocked(fmt.Errorf("object %d: strict read after an acknowledged add returned %d", obj, n))
	}
}

func (b *book) failLocked(err error) {
	if b.bad == nil {
		b.bad = err
	}
}

// winLen is the length of the sub-windows a load phase is cut into.
// Latency quantiles, CPU per operation and throughput are reported as the
// median over windows, so a disturbance confined to a few seconds of a run
// moves a few windows, not the reported value.
const winLen = 2 * time.Second

// sample is one operation's outcome: when it was issued (since the phase
// started) and its latency in ms, +Inf for an operation that errored or
// was never answered — it misses every latency limit.
type sample struct {
	at time.Duration
	ms float64
}

// latRec collects per-operation latencies, split into fast (non-strict)
// and strict operations, with the outcome counts. Operations are issued
// under a key and recorded under it; close gives every operation still
// open an infinite latency and ignores answers that come after it.
type latRec struct {
	mu       sync.Mutex
	fast     []sample
	strict   []sample
	answered int
	errored  int
	open     map[int]openOp
	closed   bool
}

// openOp is an issued operation awaiting its answer.
type openOp struct {
	at     time.Duration
	strict bool
}

func newLatRec() *latRec { return &latRec{open: map[int]openOp{}} }

func (l *latRec) issue(key int, strict bool, at time.Duration) {
	l.mu.Lock()
	l.open[key] = openOp{at, strict}
	l.mu.Unlock()
}

func (l *latRec) record(key int, ms float64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o, ok := l.open[key]
	if !ok || l.closed {
		return
	}
	delete(l.open, key)
	if err != nil {
		l.errored++
		ms = math.Inf(1)
	} else {
		l.answered++
	}
	l.addLocked(o, ms)
}

func (l *latRec) addLocked(o openOp, ms float64) {
	if o.strict {
		l.strict = append(l.strict, sample{o.at, ms})
	} else {
		l.fast = append(l.fast, sample{o.at, ms})
	}
}

// close records every operation still open as unanswered and returns how
// many there were.
func (l *latRec) close() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for _, o := range l.open {
		l.addLocked(o, math.Inf(1))
	}
	return len(l.open)
}

// windowQuantiles returns the q-quantile of each winLen window of xs
// (grouped by issue time) that holds at least minWindowSamples samples.
func windowQuantiles(xs []sample, q float64) []float64 {
	groups := map[int][]float64{}
	for _, x := range xs {
		w := int(x.at / winLen)
		groups[w] = append(groups[w], x.ms)
	}
	var out []float64
	for _, g := range groups {
		if len(g) >= minWindowSamples {
			out = append(out, quantile(g, q))
		}
	}
	return out
}

// sampleMs returns the latencies of xs.
func sampleMs(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// minWindowSamples is the fewest samples a window needs to count.
const minWindowSamples = 20

// meter cuts an open-loop phase into winLen windows as the dispatcher
// crosses their boundaries, recording process CPU and operations answered
// per window. A window with no answer records a rate of 0 and no CPU per
// operation. Only the dispatching goroutine calls tick; answer callbacks
// count into answered.
type meter struct {
	start    time.Time
	next     time.Duration
	mark     time.Duration // process CPU when the current window began
	answered atomic.Int64
	seen     int64     // answered when the current window began
	cpuPerOp []float64 // ms per operation answered, one per window
	rate     []float64 // operations answered per second, one per window
}

func newMeter(start time.Time) *meter {
	return &meter{start: start, next: winLen, mark: procCPU()}
}

// tick closes every window whose end now has passed.
func (m *meter) tick(now time.Time) {
	for now.Sub(m.start) >= m.next {
		cpu, n := procCPU(), m.answered.Load()
		if n > m.seen {
			m.cpuPerOp = append(m.cpuPerOp, ms(cpu-m.mark)/float64(n-m.seen))
		}
		m.rate = append(m.rate, float64(n-m.seen)/winLen.Seconds())
		m.mark, m.seen = cpu, n
		m.next += winLen
	}
}

// loopResult is one load phase's outcome.
type loopResult struct {
	offered    int
	answered   int
	errored    int
	unanswered int
	lat        *latRec
	lateMs     []float64     // how late each dispatch ran
	elapsed    time.Duration // load plus drain
	cpuPerOp   []float64     // per winLen window (open loop) or per phase (closed loop)
	rate       []float64     // likewise: operations answered per second
}

// inflight counts operations awaiting their answer and lets the
// dispatcher wait for the count to fall under a bound or to zero.
type inflight struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func newInflight() *inflight {
	f := &inflight{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *inflight) add() {
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
}

func (f *inflight) done() {
	f.mu.Lock()
	f.n--
	f.cond.Broadcast()
	f.mu.Unlock()
}

// waitBelow blocks until fewer than max operations are in flight, or
// until timeout passes with none answered; it reports whether room opened.
func (f *inflight) waitBelow(max int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	stop := time.AfterFunc(timeout, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer stop.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.n >= max && time.Now().Before(deadline) {
		f.cond.Wait()
	}
	return f.n < max
}

// drain waits until nothing is in flight or the timeout passes, and
// returns how many operations were still unanswered.
func (f *inflight) drain(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	stop := time.AfterFunc(timeout, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer stop.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.n > 0 && time.Now().Before(deadline) {
		f.cond.Wait()
	}
	return f.n
}

func opFor(k opKind) dtype.Operator {
	if k == kindAdd {
		return dtype.CtrAdd{N: 1}
	}
	return dtype.CtrRead{}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop dispatches sched from one goroutine (the caller's): each
// operation is sent when it is due, whatever is still in flight, and its
// latency is timed from the due time, so a stall shows in every operation
// queued behind it. After the window it calls atWindowEnd (when non-nil)
// and waits up to drainTimeout for the answers still outstanding.
func openLoop(d driver, b *book, sched []arrival, window, drainTimeout time.Duration, atWindowEnd func()) loopResult {
	lat := newLatRec()
	fl := newInflight()
	res := loopResult{offered: len(sched), lat: lat, lateMs: make([]float64, 0, len(sched))}
	var byKind [3]atomic.Int64 // outstanding operations by kind
	start := time.Now()
	m := newMeter(start)
	for i, a := range sched {
		due := start.Add(a.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		m.tick(now)
		res.lateMs = append(res.lateMs, ms(now.Sub(due)))
		obj, kind := int(a.obj), a.kind
		var prev []ops.ID
		if kind == kindStrict {
			prev = b.lastAck(obj)
		}
		if kind == kindAdd {
			b.noteSubmit(obj)
		}
		fl.add()
		byKind[kind].Add(1)
		lat.issue(i, kind == kindStrict, a.due)
		d.submit(obj, opFor(kind), kind == kindStrict, prev, func(id ops.ID, v dtype.Value, err error) {
			byKind[kind].Add(-1)
			lat.record(i, ms(time.Since(due)), err)
			if err == nil {
				m.answered.Add(1)
				if kind == kindAdd {
					b.noteAdd(obj, id)
				} else {
					b.noteRead(obj, v, len(prev) > 0)
				}
			}
			fl.done()
		})
	}
	if wait := time.Until(start.Add(window)); wait > 0 {
		time.Sleep(wait)
	}
	m.tick(time.Now())
	res.cpuPerOp, res.rate = m.cpuPerOp, m.rate
	if atWindowEnd != nil {
		atWindowEnd()
	}
	fl.drain(drainTimeout)
	res.elapsed = time.Since(start)
	res.finish()
	if res.unanswered > 0 {
		logf("drain: unanswered adds %d, reads %d, strict reads %d", byKind[kindAdd].Load(), byKind[kindRead].Load(), byKind[kindStrict].Load())
	}
	return res
}

// finish closes the phase's latency record and takes its outcome counts.
func (r *loopResult) finish() {
	r.unanswered = r.lat.close()
	r.lat.mu.Lock()
	r.answered, r.errored = r.lat.answered, r.lat.errored
	r.lat.mu.Unlock()
}

// closedLoop keeps limit adds in flight: each answer lets the dispatcher
// submit the next add, on the next object in turn, until total adds have
// been submitted; then it calls atWindowEnd (when non-nil) and drains.
// Answers come back to the dispatching goroutine through a channel, so
// all submissions stay on one goroutine; how long an answer waited for
// the next submission is the loop's lateness. The work is fixed, so the
// phase yields one rate and one CPU cost per operation, both over the
// whole phase up to the last answer (or the end of a drain that gave up).
func closedLoop(d driver, b *book, total, limit int, drainTimeout time.Duration, atWindowEnd func()) loopResult {
	lat := newLatRec()
	fl := newInflight()
	res := loopResult{lat: lat}
	// Sized to the in-flight bound: every answer finds room without
	// blocking the transport goroutine that delivers it.
	ready := make(chan time.Time, limit)
	objects := d.objects()
	start := time.Now()
	cpu0 := procCPU()
	submit := func() {
		i, obj := res.offered, res.offered%objects
		t0 := time.Now()
		b.noteSubmit(obj)
		fl.add()
		res.offered++
		lat.issue(i, false, t0.Sub(start))
		d.submit(obj, dtype.CtrAdd{N: 1}, false, nil, func(id ops.ID, _ dtype.Value, err error) {
			lat.record(i, ms(time.Since(t0)), err)
			if err == nil {
				b.noteAdd(obj, id)
			}
			fl.done()
			ready <- time.Now()
		})
	}
	for res.offered < limit && res.offered < total {
		submit()
	}
	deadline := time.NewTimer(drainTimeout)
	defer deadline.Stop()
loop:
	for res.offered < total {
		select {
		case at := <-ready:
			res.lateMs = append(res.lateMs, ms(time.Since(at)))
			submit()
		case <-deadline.C:
			break loop
		}
		deadline.Reset(drainTimeout) // no stale expiry can follow a Reset since Go 1.23
	}
	if atWindowEnd != nil {
		atWindowEnd()
	}
	fl.drain(drainTimeout)
	res.elapsed = time.Since(start)
	cpu := procCPU() - cpu0
	res.finish()
	res.rate = []float64{float64(res.answered) / res.elapsed.Seconds()}
	if res.answered > 0 {
		res.cpuPerOp = []float64{ms(cpu) / float64(res.answered)}
	}
	return res
}

// warmUp touches every object once with an add, keeping at most limit in
// flight: unpaced warm-up submissions can drive a wide keyspace into a
// retransmission collapse (see README.md).
func warmUp(d driver, b *book, limit int, timeout time.Duration) error {
	fl := newInflight()
	var mu sync.Mutex
	var firstErr error
	for obj := 0; obj < d.objects(); obj++ {
		if !fl.waitBelow(limit, timeout) {
			return fmt.Errorf("warm-up: no answer for %v with %d adds in flight", timeout, limit)
		}
		if obj%1024 == 0 {
			logf("warm-up: %d of %d objects", obj, d.objects())
		}
		obj := obj
		b.noteSubmit(obj)
		fl.add()
		d.submit(obj, dtype.CtrAdd{N: 1}, false, nil, func(id ops.ID, _ dtype.Value, err error) {
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			} else {
				b.noteAdd(obj, id)
			}
			fl.done()
		})
	}
	if left := fl.drain(timeout); left > 0 {
		return fmt.Errorf("warm-up: %d adds unanswered after %v", left, timeout)
	}
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// readBack is the exact audit: one strict read per object, ordered after
// every acknowledged add on it, must return the acknowledged count —
// fewer means an acknowledged add was lost, more that one was applied
// twice. Only adds that failed or went unanswered, whose effect is
// unknown, widen the accepted range up to the submitted count. expect,
// when non-nil, replaces the ledger's counts (the test hook that doctors
// a sum). Strict latencies are recorded into lat when it is non-nil.
func readBack(d driver, b *book, expect []int64, limit int, timeout time.Duration, lat *latRec) error {
	b.mu.Lock()
	lo := append([]int64(nil), b.acked...)
	hi := append([]int64(nil), b.submitted...)
	prevs := make([][]ops.ID, len(b.addIDs))
	for i, ids := range b.addIDs {
		prevs[i] = append([]ops.ID(nil), ids...)
	}
	b.mu.Unlock()
	if expect != nil {
		lo, hi = expect, expect
	}
	fl := newInflight()
	if lat != nil {
		defer lat.close()
	}
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for obj := range lo {
		if !fl.waitBelow(limit, timeout) {
			return fmt.Errorf("read-back: no answer for %v with %d strict reads in flight", timeout, limit)
		}
		obj := obj
		t0 := time.Now()
		fl.add()
		if lat != nil {
			lat.issue(obj, true, 0)
		}
		d.submit(obj, dtype.CtrRead{}, true, prevs[obj], func(_ ops.ID, v dtype.Value, err error) {
			if lat != nil {
				lat.record(obj, ms(time.Since(t0)), err)
			}
			switch n, ok := v.(int64); {
			case err != nil:
				fail(fmt.Errorf("read-back of object %d: %w", obj, err))
			case !ok || n < lo[obj] || n > hi[obj]:
				fail(fmt.Errorf("object %d reads back %v, want %d acknowledged adds (%d submitted)", obj, v, lo[obj], hi[obj]))
			}
			fl.done()
		})
	}
	if left := fl.drain(timeout); left > 0 {
		return fmt.Errorf("read-back: %d strict reads unanswered after %v", left, timeout)
	}
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}
