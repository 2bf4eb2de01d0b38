package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/transport"
)

// Every optional interface core probes a network for: a traced wrapper
// missing one would silently reroute core (no RegisterInline, for
// example, sends replicas back to per-node mailboxes).
var optionalNetInterfaces = []reflect.Type{
	reflect.TypeOf((*transport.InlineRegistrar)(nil)).Elem(),
	reflect.TypeOf((*transport.FeatureNegotiator)(nil)).Elem(),
	reflect.TypeOf((*transport.ShardSubscriber)(nil)).Elem(),
	reflect.TypeOf((*transport.FallbackRegistrar)(nil)).Elem(),
	reflect.TypeOf((*core.PeerTable)(nil)).Elem(),
}

func TestTracedNetImplementsWhatTCPNetDoes(t *testing.T) {
	tcp := reflect.TypeOf((*transport.TCPNet)(nil))
	traced := reflect.TypeOf((*tracedNet)(nil))
	for _, it := range optionalNetInterfaces {
		if tcp.Implements(it) && !traced.Implements(it) {
			t.Errorf("TCPNet implements %v but the traced wrapper does not", it)
		}
	}
}

// fleetCounts runs a short mixed-durable load on a fresh fleet, traced or
// not, and returns wire frames and do_it actions per answered operation.
// The rate is a third of the benchmark's, so that even under the race
// detector no answer takes the 250 ms that triggers a retransmission:
// retransmitted requests add frames and labelings that have nothing to do
// with tracing.
func fleetCounts(t *testing.T, traced bool) (framesPerOp, doitPerOp float64, tr *tracer) {
	t.Helper()
	core.RegisterWire()
	if traced {
		tr = newTracer()
	}
	f, err := newFleet(t.TempDir(), mixedOptions(), tr, mixedSessions, mixedPerSession)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	b := newBook(f.objects())
	if err := warmUp(f, b, warmInflight, drainTimeout); err != nil {
		t.Fatal(err)
	}
	if err := settle(f.counters, drainTimeout); err != nil {
		t.Fatal(err)
	}
	window := 3 * time.Second
	sched := schedule(7, mixedRate/3, window, f.objects(), mixedMix)
	ph, lr, err := runPhase(tr, f.counters, func(atEnd func()) loopResult {
		return openLoop(f, b, sched, window, drainTimeout, atEnd)
	})
	if err != nil {
		t.Fatal(err)
	}
	if lr.answered != lr.offered {
		t.Fatalf("answered %d of %d", lr.answered, lr.offered)
	}
	if err := readBack(f, b, nil, warmInflight, auditTimeout, nil); err != nil {
		t.Fatal(err)
	}
	return perOp(ph.c1.frames-ph.c0.frames, lr.answered),
		perOp(ph.c1.replica.DoItCount-ph.c0.replica.DoItCount, lr.answered), tr
}

// The traced run must exercise the same code as the untraced one: the
// per-operation wire frames and labelings agree.
func TestTracedAndUntracedFleetsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two loopback fleets")
	}
	plainFrames, plainDoit, _ := fleetCounts(t, false)
	tracedFrames, tracedDoit, tr := fleetCounts(t, true)
	near := func(a, b float64) bool { return a > 0 && b > 0 && a/b < 1.15 && b/a < 1.15 }
	if !near(plainFrames, tracedFrames) {
		t.Errorf("transport.frames_per_op: untraced %.3f, traced %.3f", plainFrames, tracedFrames)
	}
	if !near(plainDoit, tracedDoit) {
		t.Errorf("replica.doit_per_op: untraced %.3f, traced %.3f", plainDoit, tracedDoit)
	}
	for _, k := range []spanKind{spanSubmit, spanCallback, spanSend, spanDeliver, spanPersist, spanCommit} {
		if tr.count(k) == 0 {
			t.Errorf("traced run recorded no %s spans", spanNames[k])
		}
	}
}

// The read-back audit must catch an expected sum that is off by one.
func TestReadBackCatchesDoctoredSum(t *testing.T) {
	e, err := newEmbedded(nil, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.svc.Close()
	b := newBook(e.objects())
	if err := warmUp(e, b, wideWarmInflight, drainTimeout); err != nil {
		t.Fatal(err)
	}
	sched := schedule(3, 200, time.Second, e.objects(), wideMix)
	if lr := openLoop(e, b, sched, time.Second, drainTimeout, nil); lr.answered != lr.offered {
		t.Fatalf("answered %d of %d", lr.answered, lr.offered)
	}
	if err := readBack(e, b, nil, warmInflight, auditTimeout, nil); err != nil {
		t.Fatalf("honest audit failed: %v", err)
	}
	doctored := append([]int64(nil), b.acked...)
	doctored[len(doctored)/2]++
	if err := readBack(e, b, doctored, warmInflight, auditTimeout, nil); err == nil {
		t.Fatal("audit accepted a doctored expected sum")
	}
}

// stubDriver answers every operation at once, from a goroutine of its
// own, with a counter value of 0 — except the operations drop selects
// (by submission order), which it never answers.
type stubDriver struct {
	n     int
	calls uint64
	drop  func(call uint64) bool
}

func (d *stubDriver) objects() int { return d.n }

func (d *stubDriver) submit(_ int, _ dtype.Operator, _ bool, _ []ops.ID, done func(ops.ID, dtype.Value, error)) ops.ID {
	d.calls++
	id := ops.ID{Client: "stub", Seq: d.calls}
	if d.drop == nil || !d.drop(d.calls) {
		go done(id, int64(0), nil)
	}
	return id
}

// A closed loop that finishes its work inside one meter window must still
// report its rate and CPU cost, over the whole phase.
func TestClosedLoopReportsShortPhase(t *testing.T) {
	d := &stubDriver{n: 16}
	lr := closedLoop(d, newBook(d.n), 2000, 32, time.Second, nil)
	if lr.answered != 2000 || lr.unanswered != 0 {
		t.Fatalf("answered %d, unanswered %d of 2000", lr.answered, lr.unanswered)
	}
	if len(lr.rate) != 1 || lr.rate[0] <= 0 || len(lr.cpuPerOp) != 1 {
		t.Fatalf("closed loop reported rate %v and cpu/op %v, want one positive value each", lr.rate, lr.cpuPerOp)
	}
	if got, want := lr.rate[0], 2000/lr.elapsed.Seconds(); got != want {
		t.Fatalf("rate %v, want answered over the phase, %v", got, want)
	}
}

// An open loop whose answers stop must show it: windows without answers
// read a rate of 0, and each unanswered operation counts as infinitely
// late in its window.
func TestOpenLoopShowsStall(t *testing.T) {
	sched := schedule(9, 100, 2*winLen, 16, mix{add: 1})
	half := uint64(0)
	for _, a := range sched {
		if a.due < winLen {
			half++
		}
	}
	d := &stubDriver{n: 16, drop: func(call uint64) bool { return call > half }}
	lr := openLoop(d, newBook(d.n), sched, 2*winLen, 100*time.Millisecond, nil)
	if lr.unanswered != len(sched)-int(half) {
		t.Fatalf("unanswered %d, want %d", lr.unanswered, len(sched)-int(half))
	}
	if len(lr.rate) != 2 || lr.rate[0] <= 0 || lr.rate[1] != 0 {
		t.Fatalf("window rates %v, want [>0 0]", lr.rate)
	}
	if len(lr.cpuPerOp) != 1 {
		t.Fatalf("cpu/op windows %v, want only the answered window", lr.cpuPerOp)
	}
	p50 := windowQuantiles(lr.lat.fast, 0.5)
	sort.Float64s(p50)
	if len(p50) != 2 || math.IsInf(p50[0], 0) || !math.IsInf(p50[1], 1) {
		t.Fatalf("window p50s %v, want one finite and one +Inf", p50)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(5, 500, 2*time.Second, 256, mixedMix)
	b := schedule(5, 500, 2*time.Second, 256, mixedMix)
	c := schedule(6, 500, 2*time.Second, 256, mixedMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 850 || n > 1150 {
		t.Fatalf("500 ops/s for 2s scheduled %d operations", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatal("schedule is not in due order")
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"esds/internal/dtype.Keyed.Apply":                  "dtype",
		"encoding/gob.(*Decoder).Decode":                   "codec",
		"esds/internal/core.(*Replica).handleMessage":      "replica",
		"esds/internal/core.(*rtWorker).run":               "runtime",
		"esds/internal/core.(*FileStableStore).committer":  "store",
		"esds/internal/core.(*KeyspaceClient).Submit":      "client",
		"esds/internal/transport.(*TCPNet).sendLoop":       "transport",
		"esds/internal/label.Label.Less":                   "label",
		"runtime.gcBgMarkWorker":                           "gc",
		"syscall.Syscall6":                                 "",
		"esds/internal/core.(*CompactGossipMsg).GobEncode": "codec",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// attribute must read a real runtime/pprof CPU profile through
// `go tool pprof` and account for its CPU time.
func TestAttributeChargesCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			x += i % 7
		}
	}
	pprof.StopCPUProfile()
	if x == 0 {
		t.Fatal("busy loop did nothing")
	}
	got, err := attribute(buf.Bytes(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range cpuLayers {
		total += got[l]
	}
	if total < 50 {
		t.Fatalf("attributed %.1f ms of a 300 ms busy loop: %v", total, got)
	}
}

func TestAttributeTraces(t *testing.T) {
	out := `File: esds-perfbench
Type: cpu
Duration: 12s, Total samples = 1.52s (12.67%)
-----------+-------------------------------------------------------
      10ms   syscall.Syscall6
             esds/internal/core.(*FileStableStore).committer
             runtime.goexit
-----------+-------------------------------------------------------
     1.50s   runtime.memmove
             esds/internal/dtype.Keyed.Apply
-----------+-------------------------------------------------------
      10ms   runtime.futex
-----------+-------------------------------------------------------
      20ms   internal/runtime/atomic.(*Uint32).Add (inline)
             encoding/gob.(*Encoder).Encode
-----------+-------------------------------------------------------
`
	got, err := attributeTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"store": 10, "dtype": 1500, "other": 10, "codec": 20}
	for _, l := range cpuLayers {
		if got[l] != want[l] {
			t.Errorf("cpu.%s = %v ms, want %v", l, got[l], want[l])
		}
	}
}

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1) // as the benchmark runs
	core.RegisterWire()
	os.Exit(m.Run())
}
