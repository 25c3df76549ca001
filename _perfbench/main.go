// Command perfbench is the repository benchmark: it drives the
// simulator through its Go API on one of three workloads and prints
// one JSON result line. See README.md for the workloads, the metrics
// and which layer metric should move which end-to-end metric.
//
// Usage (from the repository root):
//
//	bash _perfbench/run.sh --workload nexdsim --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"nexsim/internal/experiments"
)

// metricDef names one reported metric. The lists below mirror
// BENCHMARK.json (a test keeps them in step).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
}

// selfLayers are the layers a CPU profile's samples are folded into
// (see layerOf); each reports <layer>.self_pct.
var selfLayers = []string{
	"nex", "cpu", "mem", "lpn", "dsim", "accel", "rtl", "simbricks", "checkpoint",
	"experiments", "simserve", "cluster", "app", "json", "nethttp", "runtime", "gc", "other",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"nex.epochs", "count", "lower"},
		{"nex.thread_epochs", "count", "lower"},
		{"nex.traps", "count", "lower"},
		{"nex.syncs", "count", "lower"},
		{"nex.irqs", "count", "lower"},
		{"nex.host_ns_per_epoch", "ns", "lower"},
		{"dsim.steps", "count", "lower"},
		{"dsim.tasks", "count", "lower"},
		{"dsim.dma_bytes", "B", "lower"},
		{"checkpoint.hits", "count", "higher"},
		{"checkpoint.misses", "count", "lower"},
		{"checkpoint.hit_ratio", "ratio", "higher"},
		{"checkpoint.bytes", "B", "lower"},
	}
	for _, id := range paperTables {
		defs = append(defs, metricDef{"experiments.table_ms." + id, "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"parsim.device_wall_share", "ratio", "higher"},
		metricDef{"runtime.allocs_per_run", "count", "lower"},
		metricDef{"runtime.bytes_per_run", "B", "lower"},
		metricDef{"gc.cycles", "count", "lower"},
		metricDef{"simserve.hit_ms_p50", "ms", "lower"},
		metricDef{"simserve.queue_wait_ms_p90", "ms", "lower"},
		metricDef{"simserve.run_ms_p50", "ms", "lower"},
		metricDef{"simserve.cache_hit_ratio", "ratio", "higher"},
		metricDef{"simserve.deduped", "count", "higher"},
		metricDef{"simserve.rejected", "count", "lower"},
		metricDef{"cluster.router_self_ms_p50", "ms", "lower"},
		metricDef{"cluster.router_self_ms_p99", "ms", "lower"},
		metricDef{"cluster.forwards", "count", "lower"},
		metricDef{"cluster.hedges", "count", "lower"},
		metricDef{"cluster.hotset_pushes", "count", "lower"},
		metricDef{"cluster.failovers", "count", "lower"},
		metricDef{"serve.gen_lag_ms_p99", "ms", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_pct", "%", "lower"})
	}
	return defs
}()

// phase is one measured interval of a workload.
type phase struct {
	// index distinguishes the intervals of one process (0: untraced,
	// 1: traced); each draws its own request stream from the seed.
	index    int
	duration time.Duration
	// tr records spans around the public calls; nil with tracing off.
	tr *tracer
	// ladder runs the serve workload's capacity phases after its main
	// phase.
	ladder bool
}

// outcome is what one phase measured.
type outcome struct {
	attempted, succeeded, failed, refused int
	// The timings every workload defines for its own op, as measured;
	// main scales them by slowness. p90ms is reported but not gated.
	opsPerS, p50ms, p90ms float64
	// slowness is the machine's speed relative to the reference over
	// the phase (see speedProbe), or 1 where the workload is not scaled.
	slowness float64
	// heapMB is the live heap (liveHeapMB) the workload measured once
	// its work was done; untraced phases only.
	heapMB float64
	// named are the workload's own end-to-end figures, printed as
	// report lines above the result.
	named []named
	// layers are per-layer metrics (filled on traced phases).
	layers map[string]float64
}

type named struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) add(name string, value float64, unit string) {
	o.named = append(o.named, named{name, value, unit})
}

// instance is a set-up workload, ready to measure.
type instance interface {
	measure(p phase) (outcome, error)
	close()
}

type workload struct {
	name  string
	setup func(seed uint64, scratch string) (instance, error)
}

var allWorkloads = []workload{
	{"nexdsim", setupNexdsim},
	{"paper", setupPaper},
	{"serve", setupServe},
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want nexdsim, paper or serve)", name)
}

// setupSamples is how many times set-up runs per untraced measurement:
// once in this process, the rest in fresh child processes so every
// sample is cold. setup_s is their median.
const setupSamples = 5

func main() {
	var (
		name      = flag.String("workload", "", "workload: nexdsim, paper or serve")
		seed      = flag.Uint64("seed", 1, "workload seed (inputs are a function of it)")
		seconds   = flag.Float64("seconds", 30, "measured seconds")
		traceFlag = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		setupOnly = flag.Bool("setup-only", false, "set up once, print the set-up seconds and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag, *setupOnly); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traceFlag int, setupOnly bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if _, err := os.Stat(filepath.Join("_perfbench", "golden")); err != nil {
		return errors.New("run from the repository root")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)

	if setupOnly {
		inst, secs, err := timedSetup(w, seed, scratch)
		if err != nil {
			return err
		}
		inst.close()
		fmt.Println(strconv.FormatFloat(secs, 'g', -1, 64))
		return nil
	}

	inst, secs, err := timedSetup(w, seed, scratch)
	if err != nil {
		return err
	}
	defer inst.close()
	heapMB := liveHeapMB()
	setups := []float64{secs}
	for traceFlag == 0 && len(setups) < setupSamples {
		s, err := childSetup(name, seed)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}

	d := time.Duration(seconds * float64(time.Second))
	res := result{Metrics: map[string]metricValue{}}
	var out outcome
	if traceFlag == 0 {
		out, err = inst.measure(phase{index: 0, duration: d, ladder: true})
		if err != nil {
			return err
		}
		heapMB = max(heapMB, out.heapMB)
		for _, m := range endToEnd {
			var v float64
			switch m.name {
			case "setup_s":
				v = median(setups)
			case "heap_peak_mb":
				v = heapMB
			case "ops_per_s":
				v = out.opsPerS * out.slowness
			case "p50_ms":
				v = out.p50ms / out.slowness
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	} else {
		out, err = tracedRun(inst, d)
		if err != nil {
			return err
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{out.layers[m.name], m.unit}
		}
	}
	res.Attempted = out.attempted
	res.Failed = out.failed
	res.Correct = out.failed == 0 && out.attempted > 0

	printConditions(name, seed, seconds, traceFlag, setups)
	fmt.Printf("ops: attempted=%d succeeded=%d failed=%d refused=%d\n",
		out.attempted, out.succeeded, out.failed, out.refused)
	fmt.Printf("speed: slowness=%.4f raw ops_per_s=%.4g p50_ms=%.4g p90_ms=%.4g\n",
		out.slowness, out.opsPerS, out.p50ms, out.p90ms)
	fmt.Printf("p90_ms: %s ms (scaled; reported, not gated)\n", strconv.FormatFloat(out.p90ms/out.slowness, 'g', 6, 64))
	for _, n := range out.named {
		fmt.Printf("%s: %s %s\n", n.name, strconv.FormatFloat(n.value, 'g', 6, 64), n.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tracedRun measures half the time untraced and half traced with a CPU
// profile; the per-layer metrics come from the traced half, and the
// difference in p50 between the halves is the tracing overhead.
func tracedRun(inst instance, d time.Duration) (outcome, error) {
	plain, err := inst.measure(phase{index: 0, duration: d / 2})
	if err != nil {
		return outcome{}, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return outcome{}, fmt.Errorf("cpu profile: %w", err)
	}
	var gcBefore, gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	traced, err := inst.measure(phase{index: 1, duration: d / 2, tr: &tracer{}})
	runtime.ReadMemStats(&gcAfter)
	pprof.StopCPUProfile()
	if err != nil {
		return outcome{}, err
	}
	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return outcome{}, err
	}
	if traced.layers == nil {
		traced.layers = map[string]float64{}
	}
	for _, l := range selfLayers {
		traced.layers[l+".self_pct"] = 100 * shares[l]
	}
	traced.layers["gc.cycles"] = float64(gcAfter.NumGC - gcBefore.NumGC)
	traced.layers["trace.overhead_pct"] = 100 * (ratio(traced.p50ms/traced.slowness, plain.p50ms/plain.slowness) - 1)
	traced.attempted += plain.attempted
	traced.succeeded += plain.succeeded
	traced.failed += plain.failed
	traced.refused += plain.refused
	return traced, nil
}

// setupProbes is how many speed samples bracket each set-up.
const setupProbes = 20

// timedSetup sets w up and returns its set-up seconds scaled to the
// reference speed.
func timedSetup(w workload, seed uint64, scratch string) (instance, float64, error) {
	var speed speedProbe
	for i := 0; i < setupProbes; i++ {
		speed.sample()
	}
	start := time.Now()
	inst, err := w.setup(seed, scratch)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < setupProbes; i++ {
		speed.sample()
	}
	return inst, elapsed / speed.slowness(), nil
}

// childSetup runs the workload's set-up in a fresh process and returns
// its scaled set-up seconds.
func childSetup(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printConditions records what the numbers were measured under.
func printConditions(name string, seed uint64, seconds float64, traceFlag int, setups []float64) {
	cond := struct {
		Workload    string    `json:"workload"`
		Seed        uint64    `json:"seed"`
		Seconds     float64   `json:"seconds"`
		Trace       int       `json:"trace"`
		GOMAXPROCS  int       `json:"gomaxprocs"`
		NumCPU      int       `json:"num_cpu"`
		GoVersion   string    `json:"go_version"`
		Commit      string    `json:"commit"`
		Parallel    int       `json:"parallel"`
		Intra       int       `json:"intra"`
		Checkpoints bool      `json:"checkpoints"`
		SetupS      []float64 `json:"setup_s_samples"`
	}{name, seed, seconds, traceFlag, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(),
		sourceRevision(), experiments.Parallelism(), experiments.Intra(), experiments.CheckpointsEnabled(), setups}
	data, err := json.Marshal(cond)
	if err != nil {
		return
	}
	fmt.Printf("conditions: %s\n", data)
}

// liveHeapMB runs full collections and returns the live heap in MiB.
// The second collection empties the sync.Pool caches the first one
// only moved aside.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}
