package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// CPU attribution: `go tool pprof -traces` lists every sampled stack of a
// runtime/pprof CPU profile with its CPU time, and the benchmark charges
// each to the innermost frame on the stack that belongs to a layer. That
// yields self time for layers no wrapper can time: the runtime worker,
// readLoop decoding, dtype apply, GC.

// cpuLayers are the attribution buckets, in report order.
var cpuLayers = []string{"codec", "transport", "client", "runtime", "replica", "dtype", "label", "store", "gc", "other"}

// layerOf classifies one function name, or returns "" for a frame that
// belongs to no layer (the sample then goes to the next frame out).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.bgsweep"),
		strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.markroot"),
		strings.HasPrefix(fn, "runtime.scanobject"), strings.HasPrefix(fn, "runtime.sweepone"):
		return "gc"
	case strings.HasPrefix(fn, "encoding/gob."),
		strings.Contains(fn, "GobEncode"), strings.Contains(fn, "GobDecode"),
		strings.Contains(fn, "MarshalBinary"), strings.Contains(fn, "UnmarshalBinary"),
		strings.HasPrefix(fn, "esds/internal/core.encodeCompact"), strings.HasPrefix(fn, "esds/internal/core.decodeCompact"),
		strings.HasPrefix(fn, "esds/internal/core.(*compactReader)"), strings.HasPrefix(fn, "esds/internal/transport.encodeFrame"):
		return "codec"
	case strings.HasPrefix(fn, "esds/internal/transport."):
		return "transport"
	case strings.HasPrefix(fn, "esds/internal/core.(*KeyspaceClient)"), strings.HasPrefix(fn, "esds/internal/core.(*FrontEnd)"),
		strings.HasPrefix(fn, "esds.(*Client)"):
		return "client"
	case strings.HasPrefix(fn, "esds/internal/core.(*ShardRuntime)"), strings.HasPrefix(fn, "esds/internal/core.(*rtWorker)"):
		return "runtime"
	case strings.HasPrefix(fn, "esds/internal/core.(*FileStableStore)"):
		return "store"
	case strings.HasPrefix(fn, "esds/internal/dtype."):
		return "dtype"
	case strings.HasPrefix(fn, "esds/internal/label."):
		return "label"
	case strings.HasPrefix(fn, "esds/internal/core."), strings.HasPrefix(fn, "esds/internal/ops."):
		return "replica"
	}
	return ""
}

// attribute writes a CPU profile under dir, lists its stacks with
// `go tool pprof` and returns CPU time per layer in ms.
func attribute(profile []byte, dir string) (map[string]float64, error) {
	path := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(path, profile, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return attributeTraces(string(out))
}

// traceSep starts each stack in `pprof -traces` output. A stack's first
// line is its CPU time and innermost frame; each further line one frame
// out.
const traceSep = "-----------+"

// attributeTraces charges each stack of `pprof -traces` output to its
// innermost layer frame, "other" when it has none.
func attributeTraces(out string) (map[string]float64, error) {
	res := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		res[l] = 0
	}
	stacks := strings.Split(out, traceSep)
	if len(stacks) < 2 {
		return nil, fmt.Errorf("go tool pprof printed no stacks")
	}
	for _, st := range stacks[1:] {
		lines := strings.Split(st, "\n")[1:] // the rest of the separator line
		for len(lines) > 0 && strings.TrimSpace(lines[0]) == "" {
			lines = lines[1:]
		}
		if len(lines) == 0 {
			continue // after the last separator
		}
		value, innermost, ok := strings.Cut(strings.TrimSpace(lines[0]), " ")
		if !ok {
			return nil, fmt.Errorf("go tool pprof: unexpected stack line %q", lines[0])
		}
		cost, err := parseCPU(value)
		if err != nil {
			return nil, err
		}
		layer := "other"
		for _, fn := range append([]string{innermost}, lines[1:]...) {
			fn = strings.TrimSuffix(strings.TrimSpace(fn), " (inline)")
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		res[layer] += ms(cost)
	}
	return res, nil
}

// pprofUnits are the time units pprof prints beyond time.ParseDuration's.
var pprofUnits = map[string]time.Duration{"mins": time.Minute, "hrs": time.Hour}

// parseCPU parses a pprof time value such as 10ms, 1.20s or 1.50mins.
func parseCPU(v string) (time.Duration, error) {
	for unit, scale := range pprofUnits {
		if num, ok := strings.CutSuffix(v, unit); ok {
			f, err := strconv.ParseFloat(num, 64)
			return time.Duration(f * float64(scale)), err
		}
	}
	return time.ParseDuration(v)
}
