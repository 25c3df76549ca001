package main

import (
	"context"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into the program, recorded from outside it.
// key ties spans of one request together (a spec's content address).
type span struct {
	name       string
	key        string
	start, end time.Time
}

func (s span) ms() float64 { return ms(s.end.Sub(s.start)) }

// tracer keeps spans in memory until the phase ends. A nil tracer
// records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(name, key string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, key, start, end})
	t.mu.Unlock()
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// driverLabel is the pprof label key that marks the benchmark's own
// work in a CPU profile; foldProfile leaves those samples out.
const driverLabel = "perfbench"

// asDriver runs f as the benchmark's own work: the calling goroutine,
// and every goroutine started under it, carries driverLabel until f
// returns.
func asDriver(f func()) {
	pprof.Do(context.Background(), pprof.Labels(driverLabel, "driver"), func(context.Context) { f() })
}

// gcRoots are runtime functions whose presence anywhere on a stack
// marks the sample as garbage-collector work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// layerOf maps one frame of a CPU sample (function name and source
// file) to one of selfLayers.
func layerOf(fn, file string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasSuffix(file, "/snapshot.go") && strings.HasPrefix(pkg, "nexsim/"),
		pkg == "nexsim/internal/checkpoint",
		strings.HasSuffix(file, "internal/core/checkpoint.go"),
		strings.HasSuffix(file, "internal/experiments/checkpoint.go"):
		return "checkpoint"
	case strings.HasPrefix(pkg, "nexsim/internal/accel/"):
		if strings.HasSuffix(file, "/rtl.go") {
			return "rtl"
		}
		return "accel"
	}
	switch pkg {
	case "nexsim/internal/nex":
		return "nex"
	case "nexsim/internal/cpu", "nexsim/internal/exacthost", "nexsim/internal/eventq":
		return "cpu"
	case "nexsim/internal/cachesim", "nexsim/internal/dram", "nexsim/internal/memsys",
		"nexsim/internal/mem", "nexsim/internal/interconnect":
		return "mem"
	case "nexsim/internal/lpn", "nexsim/internal/lpnlang":
		return "lpn"
	case "nexsim/internal/dsim":
		return "dsim"
	case "nexsim/internal/accel":
		return "accel"
	case "nexsim/internal/simbricks":
		return "simbricks"
	case "nexsim/internal/experiments", "nexsim/internal/sweep":
		return "experiments"
	case "nexsim/internal/simserve":
		return "simserve"
	case "nexsim/internal/cluster":
		return "cluster"
	case "nexsim/internal/app", "nexsim/internal/workloads", "nexsim/internal/coro", "nexsim/internal/isa":
		return "app"
	case "encoding/json":
		return "json"
	case "net", "net/http", "net/textproto", "net/url", "internal/poll", "syscall", "bufio", "net/http/internal":
		return "nethttp"
	case "runtime":
		return "runtime"
	}
	return "other"
}

// funcPackage extracts the import path from a symbol name such as
// "nexsim/internal/nex.(*Engine).run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldProfile reads a CPU profile and returns each layer's share of
// the sampled CPU time. A sample is charged to the innermost frame that
// belongs to a named layer: runtime helpers (allocation, copying, map
// access, syscalls) and other library code count toward the layer that
// called them. Samples of garbage-collector work count as "gc"; stacks
// with no named layer count as "runtime" or "other" by their leaf.
// Samples of the benchmark's own work (asDriver) are left out.
func foldProfile(data []byte) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.stack) == 0 || slices.Contains(s.labels, driverLabel) {
			continue
		}
		shares[sampleLayer(s.stack)] += s.value
		total += s.value
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

func sampleLayer(stack []frame) string {
	for _, f := range stack {
		for _, root := range gcRoots {
			if f.name == root {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if l := layerOf(f.name, f.file); l != "runtime" && l != "other" {
			return l
		}
	}
	return layerOf(stack[0].name, stack[0].file)
}
