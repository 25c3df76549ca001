package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/workloads"
)

// nexdsim: one caller running serial NEX+DSim experiments.RunSpec calls
// in a closed loop over a spec pool drawn from the seed. The pool holds
// specsPerBench specs of every accelerated benchmark, each with a fresh
// calibration seed; a fixed minority carry a non-default sync mode,
// the SimBricks channel or a non-default epoch.

const specsPerBench = 3

// knobs are the non-default spec variants; the rest of the pool uses
// the defaults. Fixed counts keep the pool's cost the same across seeds.
var knobs = []func(*experiments.Spec){
	func(s *experiments.Spec) { s.SyncMode = "hybrid" },
	func(s *experiments.Spec) { s.SyncMode = "hybrid" },
	func(s *experiments.Spec) { s.SyncMode = "hybrid" },
	func(s *experiments.Spec) { s.SyncMode = "eager" },
	func(s *experiments.Spec) { s.SyncMode = "eager" },
	func(s *experiments.Spec) { s.SyncMode = "eager" },
	func(s *experiments.Spec) { s.UseChannel = true },
	func(s *experiments.Spec) { s.UseChannel = true },
	func(s *experiments.Spec) { s.UseChannel = true },
	func(s *experiments.Spec) { s.EpochNS = 500 },
	func(s *experiments.Spec) { s.EpochNS = 2000 },
	func(s *experiments.Spec) { s.EpochNS = 4000 },
}

type nexdsim struct {
	seed uint64
	pool []experiments.Spec
	ref  []core.Result // each pool spec's first result, from set-up
}

// accelBenches lists the catalog's accelerated benchmarks in catalog
// order.
func accelBenches() []string {
	var names []string
	for _, b := range workloads.Catalog() {
		if b.Model != core.AccelNone {
			names = append(names, b.Name)
		}
	}
	return names
}

// nexdsimPool draws the spec pool for seed.
func nexdsimPool(seed uint64) []experiments.Spec {
	rng := rand.New(rand.NewPCG(seed, 0x6e6578))
	var pool []experiments.Spec
	for _, b := range accelBenches() {
		for i := 0; i < specsPerBench; i++ {
			pool = append(pool, experiments.Spec{Bench: b, Seed: 1000 + rng.Uint64N(1<<40)})
		}
	}
	order := rng.Perm(len(pool))
	for i, k := range knobs {
		k(&pool[order[i]])
	}
	return pool
}

// setupNexdsim draws the pool and runs every spec once: the runs warm
// the per-benchmark plans and corpora and give each spec's reference
// result.
func setupNexdsim(seed uint64, _ string) (instance, error) {
	experiments.SetParallelism(1)
	experiments.SetIntra(1)
	experiments.SetCheckpoints(false)
	w := &nexdsim{seed: seed, pool: nexdsimPool(seed)}
	for _, s := range w.pool {
		r, err := experiments.RunSpec(s)
		if err != nil {
			return nil, fmt.Errorf("nexdsim set-up %s: %w", s.Bench, err)
		}
		w.ref = append(w.ref, r)
	}
	return w, nil
}

func (w *nexdsim) close() {}

// sameResult compares the simulated outputs of two runs.
func sameResult(a, b core.Result) bool {
	return a.SimTime == b.SimTime && a.NEXStats == b.NEXStats && reflect.DeepEqual(a.Devices, b.Devices)
}

func (w *nexdsim) measure(p phase) (outcome, error) {
	rng := rand.New(rand.NewPCG(w.seed, uint64(p.index)+1))
	var (
		o                 outcome
		walls, slowdowns  []float64
		simTotal, wallSum time.Duration
		epochsTotal       int64
		before, after     runtimeCounts
	)
	counts := map[string]float64{}
	var speed speedProbe
	experiments.TakeWallSplit()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < p.duration; round++ {
		if round == 0 && p.tr != nil {
			before = readRuntimeCounts()
		}
		for _, i := range rng.Perm(len(w.pool)) {
			if round > 0 && time.Since(start) >= p.duration {
				break
			}
			t0 := time.Now()
			r, err := experiments.RunSpec(w.pool[i])
			wall := time.Since(t0)
			speed.sample()
			o.attempted++
			if err != nil || !sameResult(r, w.ref[i]) {
				o.failed++
				continue
			}
			o.succeeded++
			walls = append(walls, ms(wall))
			slowdowns = append(slowdowns, r.Slowdown())
			simTotal += time.Duration(r.SimTime.Nanoseconds())
			wallSum += wall
			epochsTotal += r.NEXStats.Epochs
			if round == 0 {
				addRunCounts(counts, r)
			}
		}
		if round == 0 && p.tr != nil {
			after = readRuntimeCounts()
		}
	}
	host, device := experiments.TakeWallSplit()
	if p.tr == nil {
		o.heapMB = liveHeapMB()
	}

	o.opsPerS = float64(o.succeeded) / wallSum.Seconds()
	o.slowness = speed.slowness()
	o.p50ms = median(walls)
	o.p90ms = quantile(walls, 0.9)
	o.add("nexdsim.runs", float64(o.succeeded), "count")
	o.add("nexdsim.sim_us_per_s", ratio(float64(simTotal.Microseconds()), wallSum.Seconds()), "us/s")
	o.add("nexdsim.slowdown_p50", median(slowdowns), "x")
	o.add("nexdsim.slowdown_p90", quantile(slowdowns, 0.9), "x")
	if p.tr != nil {
		o.layers = counts
		n := float64(len(w.pool))
		o.layers["runtime.allocs_per_run"] = float64(after.mallocs-before.mallocs) / n
		o.layers["runtime.bytes_per_run"] = float64(after.bytes-before.bytes) / n
		o.layers["nex.host_ns_per_epoch"] = ratio(float64(wallSum.Nanoseconds()), float64(epochsTotal))
		o.layers["parsim.device_wall_share"] = ratio(float64(device), float64(host))
	}
	return o, nil
}

// addRunCounts adds one run's deterministic engine counts.
func addRunCounts(c map[string]float64, r core.Result) {
	c["nex.epochs"] += float64(r.NEXStats.Epochs)
	c["nex.thread_epochs"] += float64(r.NEXStats.ThreadEpochs)
	c["nex.traps"] += float64(r.NEXStats.Traps)
	c["nex.syncs"] += float64(r.NEXStats.Syncs)
	c["nex.irqs"] += float64(r.NEXStats.IRQs)
	for _, d := range r.Devices {
		c["dsim.steps"] += float64(d.HostSteps)
		c["dsim.tasks"] += float64(d.TasksCompleted)
		c["dsim.dma_bytes"] += float64(d.DMABytes)
	}
}
