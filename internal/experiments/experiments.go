// Package experiments regenerates every table and figure of the paper's
// evaluation (§6), mapping each to the modules that implement it (see
// DESIGN.md's per-experiment index). Each experiment prints a
// human-readable table; cmd/paperbench drives them and bench_test.go
// exposes one benchmark target per table/figure.
//
// Every experiment follows the same three-phase shape: it *enumerates*
// its independent simulation jobs up front, *runs* them through the
// sweep executor (serially by default; across workers after
// SetParallelism), and *renders* the table from the order-preserved
// results. Rendering never depends on execution order, so parallel runs
// produce byte-identical tables.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/interconnect"
	"nexsim/internal/nex"
	"nexsim/internal/sweep"
	"nexsim/internal/vclock"
	"nexsim/internal/workloads"
)

// parallelism is the worker count used to execute each experiment's
// enumerated jobs. 1 (the default) reproduces the historical serial
// harness exactly; cmd/paperbench raises it via -parallel.
var parallelism = 1

// SetParallelism sets the number of workers experiments fan their
// simulation jobs across. n <= 1 selects serial execution. Not safe to
// call while an experiment is running.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism = n
}

// Parallelism reports the current worker count.
func Parallelism() int { return parallelism }

// intra is the intra-run worker count applied to every simulation the
// experiments launch (core.Config.IntraParallel): 1 (the default) keeps
// each run single-threaded, >= 2 lets one run's host and device engines
// execute concurrently. Results are byte-identical either way (the
// conservative-parallel contract, DESIGN.md §10), which is also why
// intra is deliberately NOT part of Spec: it is an execution knob, not
// part of a run's identity, so content addresses and cached results are
// shared across intra settings.
var intra = 1

// SetIntra sets the intra-run worker count for subsequently launched
// simulations. n <= 1 selects the serial schedule. Not safe to call
// while an experiment is running.
func SetIntra(n int) {
	if n < 1 {
		n = 1
	}
	intra = n
}

// Intra reports the current intra-run worker count.
func Intra() int { return intra }

// wallHostNS/wallDeviceNS accumulate every run's host/device wall-time
// split (core.Result.WallTime/DeviceWall) across the executeRun
// chokepoint, so cmd/paperbench can attribute where an experiment's
// wall time went. Atomic: sweep workers record concurrently.
var wallHostNS, wallDeviceNS int64

// noteWall records one completed run's wall split.
func noteWall(r core.Result) {
	atomic.AddInt64(&wallHostNS, int64(r.WallTime))
	atomic.AddInt64(&wallDeviceNS, int64(r.DeviceWall))
}

// TakeWallSplit returns the host and device wall time accumulated
// since the previous call, and resets the counters. Host wall is each
// run's full wall time; device wall is the time accelerator stepper
// lanes spent advancing concurrently with it (zero under -intra 1,
// where devices advance inline on the host goroutine).
func TakeWallSplit() (host, device time.Duration) {
	return time.Duration(atomic.SwapInt64(&wallHostNS, 0)),
		time.Duration(atomic.SwapInt64(&wallDeviceNS, 0))
}

// runJobs executes every enumerated job through the sweep executor and
// returns the results in job order. Every simulation an experiment runs
// goes through here; each job builds its own System, so jobs share no
// mutable state and any subset may run concurrently.
func runJobs[T any](jobs []func() T) []T {
	return sweep.Map(sweep.New(parallelism), jobs)
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: simulation-mode comparison (slowdown ranges)", Table1},
		{"table3", "Table 3: NEX+DSim simulated-time error vs baselines", Table3},
		{"fig3", "Figure 3: simulation time and NEX+DSim speedup over gem5+RTL", Fig3},
		{"fig4", "Figure 4: speedup breakdown across simulator combinations", Fig4},
		{"fig5", "Figure 5: simulated-time error relative to gem5+RTL", Fig5},
		{"cpuonly", "§6.5: CPU-only error of NEX and gem5 vs native", CPUOnly},
		{"table4", "Table 4: NEX error and slowdown vs epoch duration", Table4},
		{"underprov", "§6.6: underprovisioned physical cores", Underprovision},
		{"compsched", "§6.6/§A.1: complementary scheduling accuracy", CompSched},
		{"hybrid", "§6.7: hybrid synchronization overhead", Hybrid},
		{"tail", "§6.8: 90th-percentile task latency error (Protoacc)", Tail},
		{"whatif", "§6.4: CompressT/JumpT what-if analysis (JPEG)", WhatIf},
		{"vtasweep", "§6.4: interactive VTA design exploration (ResNet-50)", VTASweep},
		{"protosweep", "§6.4: Protoacc memory-latency crossover", ProtoSweep},
		{"tightvschan", "§A.2: tight integration vs SimBricks channel", TightVsChan},
		{"ablation-tick", "Ablation: NEX tick mode (trap batching, §3.2)", AblationTick},
		{"ablation-sync", "Ablation: lazy vs eager synchronization (§3.1)", AblationSync},
		{"ablation-dsim", "Ablation: DSim LPN vs RTL-style accelerator simulation", AblationDSim},
		{"ablation-iotlb", "Extension (§7 future work): I/O TLB translation cost", AblationIOTLB},
		{"seedsweep", "Extension: NEX error distribution across calibration seeds", SeedSweep},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// runOpts parameterize a single simulation run.
type runOpts struct {
	fabric     *interconnect.Config
	dma        core.DMALevel
	cores      int
	nexEpoch   vclock.Duration
	nexVCores  int
	nexPCores  int
	nexMode    nex.SyncMode
	nexSyncInt vclock.Duration
	noTick     bool
	useChannel bool
	seed       uint64
	useIRQ     bool // rebuild accel workloads with IRQ-driven drivers
}

// run assembles and executes one benchmark under one combination.
func run(b workloads.Bench, host core.HostKind, acc core.AccelKind, o runOpts) core.Result {
	if o.seed == 0 {
		o.seed = 42
	}
	cores := o.cores
	if cores == 0 {
		cores = 16
	}
	cfg := core.Config{
		Host: host, Accel: acc,
		Model: b.Model, Devices: b.Devices,
		Cores: cores, Seed: o.seed,
		Fabric: o.fabric, DMATarget: o.dma,
		NEXNoTick:     o.noTick,
		UseChannel:    o.useChannel,
		IntraParallel: intra,
	}
	cfg.NEX.Epoch = o.nexEpoch
	cfg.NEX.VirtualCores = o.nexVCores
	cfg.NEX.PhysicalCores = o.nexPCores
	cfg.NEX.Mode = o.nexMode
	cfg.NEX.SyncInterval = o.nexSyncInt
	r, err := executeRun(b, cfg)
	if err != nil {
		// Unreachable: table runs carry no fault plan or budget.
		panic(err)
	}
	return r
}

// benchByName panics on unknown names (experiments reference a fixed
// catalog).
func benchByName(name string) workloads.Bench {
	b, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// fmtDur prints a virtual duration compactly.
func fmtDur(d vclock.Duration) string { return d.String() }

// fmtWall prints a wall duration compactly.
func fmtWall(d time.Duration) string { return d.Round(time.Microsecond).String() }

// sortedKeys is a tiny helper for deterministic map iteration.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
