package main

import (
	"bytes"
	"embed"
	"fmt"
	"runtime"
	"time"

	"nexsim/internal/experiments"
	"nexsim/internal/sweep"
)

// paper: regenerate a fixed subset of the paperbench tables in one
// process through experiments.ByID(id).Run, with prefix checkpoints on
// and parallel and intra at the core count, as `make bench` runs them.
// The tables are the paper's fixed configurations, so the seed is not
// used.

var paperTables = []string{"fig5", "vtasweep", "protosweep", "seedsweep", "table4"}

// heapPasses is the pass after which the gated heap is read. Every
// pass of this subset leaves about 7 MB of live heap behind: vtasweep
// and protosweep leave three goroutines of coroutine threads parked for
// good, each holding its run's simulated memory (nearly all of it from
// vtasweep). The reading comes after a fixed number of passes whatever
// the machine's speed, so the growth of passes 2 and 3 is inside the
// gate.
const heapPasses = 3

// probesPerTable is how many speed samples follow each table.
const probesPerTable = 10

// golden holds each table's expected bytes: paperbench's output for the
// table without its "(id in Nms)" footer.
//
//go:embed golden/*.txt
var golden embed.FS

type paper struct {
	runs   []func(*bytes.Buffer) error
	golden [][]byte
}

// setupPaper loads the goldens and regenerates every table once: the
// first pass fills the benchmarks' plan and corpus memos and checks the
// tables.
func setupPaper(uint64, string) (instance, error) {
	par := runtime.NumCPU()
	experiments.SetParallelism(par)
	experiments.SetIntra(sweep.ClampIntra(par, runtime.NumCPU(), 0))
	experiments.SetCheckpoints(true)
	w := &paper{}
	for _, id := range paperTables {
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		want, err := golden.ReadFile("golden/" + id + ".txt")
		if err != nil {
			return nil, err
		}
		w.runs = append(w.runs, func(b *bytes.Buffer) error { return e.Run(b) })
		w.golden = append(w.golden, want)
	}
	experiments.ResetCheckpointStore()
	var buf bytes.Buffer
	for i, run := range w.runs {
		buf.Reset()
		if err := run(&buf); err != nil {
			return nil, fmt.Errorf("%s: %w", paperTables[i], err)
		}
		if !bytes.Equal(buf.Bytes(), w.golden[i]) {
			return nil, fmt.Errorf("%s: table differs from _perfbench/golden/%s.txt", paperTables[i], paperTables[i])
		}
	}
	return w, nil
}

func (w *paper) close() {}

// measure regenerates the subset in passes until the phase ends, and
// at least heapPasses times; the op of the end-to-end metrics is one
// pass. Each pass starts from an empty checkpoint store, so every pass
// both writes and forks prefix snapshots.
func (w *paper) measure(p phase) (outcome, error) {
	var (
		o      outcome
		passes []float64
		perID  = make([][]float64, len(w.runs))
		buf    bytes.Buffer
	)
	layers := map[string]float64{}
	var speed speedProbe
	var firstHeap float64
	experiments.TakeWallSplit()
	start := time.Now()
	for pass := 0; pass < heapPasses || time.Since(start) < p.duration; pass++ {
		experiments.ResetCheckpointStore()
		var passWall time.Duration
		for i, run := range w.runs {
			buf.Reset()
			t0 := time.Now()
			err := run(&buf)
			wall := time.Since(t0)
			passWall += wall
			for k := 0; k < probesPerTable; k++ {
				speed.sampleParallel()
			}
			o.attempted++
			if err != nil || !bytes.Equal(buf.Bytes(), w.golden[i]) {
				o.failed++
				continue
			}
			o.succeeded++
			perID[i] = append(perID[i], ms(wall))
		}
		passes = append(passes, passWall.Seconds())
		if p.tr == nil && pass == 0 {
			firstHeap = liveHeapMB()
		}
		if p.tr == nil && pass == heapPasses-1 {
			o.heapMB = liveHeapMB()
		}
		if pass == 0 {
			ck := experiments.CheckpointStats()
			layers["checkpoint.hits"] = float64(ck.Hits)
			layers["checkpoint.misses"] = float64(ck.Misses)
			layers["checkpoint.hit_ratio"] = ratio(float64(ck.Hits), float64(ck.Hits+ck.Misses))
			layers["checkpoint.bytes"] = float64(ck.UsedBytes)
		}
	}
	host, device := experiments.TakeWallSplit()

	o.opsPerS = float64(len(passes)) / sum(passes)
	o.slowness = speed.slowness()
	o.p50ms = 1000 * median(passes)
	o.p90ms = 1000 * quantile(passes, 0.9)
	o.add("paper.suite_s", median(passes), "s")
	o.add("paper.passes", float64(len(passes)), "count")
	if p.tr == nil {
		o.add("paper.heap_growth_mb_per_pass", (o.heapMB-firstHeap)/(heapPasses-1), "MB")
	}
	for i, id := range paperTables {
		o.add("paper.table_ms."+id, median(perID[i]), "ms")
	}
	if p.tr != nil {
		for i, id := range paperTables {
			layers["experiments.table_ms."+id] = median(perID[i])
		}
		layers["parsim.device_wall_share"] = ratio(float64(device), float64(host))
		o.layers = layers
	}
	return o, nil
}
