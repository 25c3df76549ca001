package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// A shared cloud VM's effective CPU speed drifts by ±20% over minutes, which
// moves every wall-clock figure of a run together. The benchmark
// samples that speed with a fixed kernel that touches none of the
// simulator's code, run in the gaps between the workload's operations,
// and scales the time metrics of set-up, nexdsim and paper to a
// reference speed: a change to the simulator moves the scaled figures
// exactly as it moves the raw ones, while the drift cancels. Raw
// figures are printed alongside. Serve is not scaled: over ten-seed
// sets its figures spread about as much raw as scaled.

// probeRefUS is the kernel's median time, in microseconds, at the
// reference speed (a 2-vCPU x86-64 cloud VM).
const probeRefUS = 50.0

// probeWords is the kernel's working set in words: 16 KiB, resident in
// L1 once warmed, so the timing does not depend on what ran before it.
const probeWords = 1 << 11

var probeSink atomic.Uint64

// probeKernel warms buf, then times the fixed kernel once:
// xorshift-indexed read-modify-writes over the buffer.
func probeKernel(buf []uint64) time.Duration {
	var warm uint64
	for _, v := range buf {
		warm += v
	}
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<14; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&(probeWords-1)] += x
	}
	d := time.Since(t0)
	probeSink.Add(x + warm)
	return d
}

// speedProbe collects kernel timings; safe for concurrent use.
type speedProbe struct {
	mu      sync.Mutex
	buf     []uint64
	samples []float64
}

// sample times the kernel once. Concurrent callers take turns, so each
// timing is of a lone kernel.
func (p *speedProbe) sample() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.buf == nil {
		p.buf = make([]uint64, probeWords)
	}
	p.samples = append(p.samples, us(probeKernel(p.buf)))
}

// sampleParallel runs the kernel on every processor at once, for
// workloads that keep all of them busy: sibling hardware threads slow
// each other down, which a lone kernel does not see.
func (p *speedProbe) sampleParallel() {
	n := runtime.GOMAXPROCS(0)
	times := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i] = probeKernel(make([]uint64, probeWords))
		}()
	}
	wg.Wait()
	var total time.Duration
	for _, t := range times {
		total += t
	}
	p.mu.Lock()
	p.samples = append(p.samples, us(total/time.Duration(n)))
	p.mu.Unlock()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// slowness is the median kernel time over the reference: above 1 when
// the machine ran slower than the reference speed.
func (p *speedProbe) slowness() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) == 0 {
		return 1
	}
	return median(append([]float64(nil), p.samples...)) / probeRefUS
}
