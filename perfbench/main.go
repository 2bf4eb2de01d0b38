// Command perfbench is the esds benchmark: it runs one workload against
// the real system, audits every answer, and prints one JSON result line.
//
//	go run . --workload mixed-durable --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace
// 1 a separate, traced run carries the per-layer metrics. See README.md
// for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"esds/internal/core"
)

// processStart is when the process began: the first set-up is timed from
// here, so set-up time includes program start.
var processStart = time.Now()

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fast_p50_ms", "ms"},
	{"strict_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MiB"},
	{"ingest_ops_s", "ops/s"},
	{"recover_s", "s"},
}

// perLayer are the metrics a traced run reports. A layer a workload's path
// does not cross reads 0.
var perLayer = append([]metricDef{
	{"gen.late_p99_ms", "ms"},
	{"gen.fast_p99_ms", "ms"},
	{"gen.strict_p99_ms", "ms"},
	{"gen.fail_frac", "fraction"},
	{"gen.unanswered", "count"},
	{"esds.apply_async_us_p50", "us"},
	{"client.submit_us_p50", "us"},
	{"client.requests_per_op", "req/op"},
	{"client.batch_target", "count"},
	{"transport.send_us_p50", "us"},
	{"transport.send_us_p99", "us"},
	{"transport.deliver_us_p50", "us"},
	{"transport.frames_per_op", "frames/op"},
	{"transport.bytes_per_op", "B/op"},
	{"transport.frames_per_flush", "frames/flush"},
	{"transport.dropped", "count"},
	{"runtime.msgs_per_run", "msgs/run"},
	{"replica.requests_per_op", "req/op"},
	{"replica.doit_per_op", "count/op"},
	{"replica.applies_per_op", "count/op"},
	{"replica.gossip_sent_per_op", "msgs/op"},
	{"replica.gossip_suppressed_frac", "fraction"},
	{"replica.pending_ops", "count"},
	{"replica.retained_ops", "count"},
	{"replica.faults", "count"},
	{"store.persist_us_p50", "us"},
	{"store.commit_ms_p50", "ms"},
	{"store.commit_ms_p99", "ms"},
	{"store.commits_per_op", "count/op"},
	{"store.records_per_sync", "records/sync"},
	{"store.journal_bytes_per_op", "B/op"},
	{"store.open_s", "s"},
	{"store.recovery_handshake_s", "s"},
	{"go.allocs_per_op", "allocs/op"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cpu_frac", "fraction"},
}, append(cpuDefs(), metricDef{"trace.overhead_frac", "fraction"})...)

func cpuDefs() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{"cpu." + l, "ms/op"})
	}
	return out
}

var workloads = map[string]spec{
	"mixed-durable":  mixedDurable,
	"embedded-wide":  embeddedWide,
	"ingest-restart": ingestRestart,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// A run that has not finished in runLimit, or whose heap passes
// heapLimit, has tipped into collapse (see README.md): it is stopped with
// an error instead of hanging or exhausting memory. runLimit allows for
// set-up, drains, audits and restarts on top of the measured seconds: a
// healthy embedded-wide run, the slowest, takes about 2× --seconds.
func runLimit(seconds int) time.Duration {
	return 90*time.Second + 3*time.Duration(seconds)*time.Second
}

const heapLimit = 1 << 30

// logf reports progress with --verbose.
var logf = func(string, ...any) {}

func watchdog(limit time.Duration, heap uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for range time.Tick(250 * time.Millisecond) {
		metrics.Read(s)
		if time.Since(processStart) > limit || s[0].Value.Uint64() > heap {
			fmt.Fprintf(os.Stderr, "perfbench: aborted after %v with %d MiB of live heap objects: the system did not keep up\n",
				time.Since(processStart).Round(time.Second), s[0].Value.Uint64()>>20)
			os.Exit(1)
		}
	}
}

func main() {
	// One P: on a 2-vCPU host, runs at GOMAXPROCS=2 fell into two CPU-cost
	// modes (about 0.76 and 1.0 ms/op on mixed-durable) for whole runs; at
	// one P the modes are gone, so the figures measure the program rather
	// than the scheduler. Shard runtimes size their pools from it.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch journals and span files")
	verbose := fs.Bool("verbose", false, "log progress to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds ≥ 1, --trace 0|1\n", names)
		return 2
	}
	if *verbose {
		logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "%7.2fs "+format+"\n", append([]any{time.Since(processStart).Seconds()}, a...)...)
		}
	}
	go watchdog(runLimit(*seconds), heapLimit)
	core.RegisterWire()
	work, err := scratchDir(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	res, err := runSpec(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, work: work}, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs, vals := endToEnd, res.e2e
	if *trace == 1 {
		defs, vals = perLayer, res.layer
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.tsv", *name, *seed))
		if err := res.tr.writeTo(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	o := output{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *name, d.name)
			return 1
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A latency quantile reads +Inf when failed operations make up
			// that share of most windows: the system did not keep up.
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v (%d of %d operations failed)\n",
				*name, d.name, v, res.failed, res.attempted)
			return 1
		}
		o.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
