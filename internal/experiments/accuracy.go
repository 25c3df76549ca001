package experiments

import (
	"fmt"
	"io"

	"nexsim/internal/accel"
	"nexsim/internal/accel/protoacc"
	"nexsim/internal/core"
	"nexsim/internal/stats"
	"nexsim/internal/vclock"
	"nexsim/internal/workloads"
)

// table3Groups maps each accelerator family to its benchmarks (Table 3
// computes statistics "across all corresponding benchmarks").
var table3Groups = []struct {
	accel   string
	benches []string
}{
	{"VTA", []string{"vta-resnet18", "vta-resnet34", "vta-resnet50",
		"vta-yolov3-tiny", "vta-resnet18-mp4"}},
	{"Protoacc", []string{"protoacc-bench0", "protoacc-bench1", "protoacc-bench2",
		"protoacc-bench3", "protoacc-bench4", "protoacc-bench5"}},
	{"JPEG", []string{"jpeg-decode", "jpeg-mt.2", "jpeg-mt.4", "jpeg-mt.8"}},
}

// table3Boards are the FPGA stand-ins: the reference engine with the VTA
// clocked at the two board frequencies (the paper's 160MHz and 201MHz
// testbeds).
var table3Boards = []struct {
	name string
	clk  vclock.Hz
}{{"FPGA-1", 160 * vclock.MHz}, {"FPGA-2", 201 * vclock.MHz}}

// Table3 reports NEX+DSim's simulated-time error against (a) the
// exact-time reference engine (our stand-in for the FPGA testbeds, run
// at two "board" clock configurations for VTA) and (b) the gem5+RTL
// baseline, plus the range of simulated end-to-end latency.
func Table3(w io.Writer) error {
	// Enumerate: per board, a (reference, NEX+DSim) pair per VTA
	// benchmark; then per group, a (gem5+RTL, NEX+DSim) pair per
	// benchmark.
	var jobs []func() core.Result
	for _, board := range table3Boards {
		clk := board.clk
		for _, name := range table3Groups[0].benches {
			b := benchByName(name)
			jobs = append(jobs,
				func() core.Result { return runWithAccelClock(b, core.HostReference, core.AccelRTL, clk) },
				func() core.Result { return runWithAccelClock(b, core.HostNEX, core.AccelDSim, clk) })
		}
	}
	for _, g := range table3Groups {
		for _, name := range g.benches {
			b := benchByName(name)
			jobs = append(jobs,
				func() core.Result { return run(b, core.HostGem5, core.AccelRTL, runOpts{}) },
				func() core.Result { return run(b, core.HostNEX, core.AccelDSim, runOpts{}) })
		}
	}
	res := runJobs(jobs)

	fmt.Fprintf(w, "%-10s %-9s %7s %7s %7s   %s\n",
		"baseline", "accel", "avg", "max", "min", "E2E latency (NEX+DSim)")

	// renderGroup consumes len(benches) (baseline, got) pairs starting at
	// res[off] and prints one summary row.
	renderGroup := func(off int, label, accelName string, n int) int {
		var errs []float64
		var lo, hi vclock.Duration
		for i := 0; i < n; i++ {
			base, got := res[off+2*i], res[off+2*i+1]
			errs = append(errs, stats.RelErr(got.SimTime, base.SimTime))
			if i == 0 || got.SimTime < lo {
				lo = got.SimTime
			}
			if got.SimTime > hi {
				hi = got.SimTime
			}
		}
		s := stats.Summarize(errs)
		fmt.Fprintf(w, "%-10s %-9s %6.1f%% %6.1f%% %6.1f%%   %s - %s\n",
			label, accelName, s.Avg*100, s.Max*100, s.Min*100, fmtDur(lo), fmtDur(hi))
		return off + 2*n
	}

	off := 0
	for _, board := range table3Boards {
		off = renderGroup(off, board.name, "VTA", len(table3Groups[0].benches))
	}
	for _, g := range table3Groups {
		off = renderGroup(off, "gem5+RTL", g.accel, len(g.benches))
	}
	return nil
}

// runWithAccelClock reruns a benchmark with a non-default accelerator
// clock (the FPGA boards run the same RTL slower than the 2GHz ASIC
// target).
func runWithAccelClock(b workloads.Bench, host core.HostKind, acc core.AccelKind, clk vclock.Hz) core.Result {
	cfg := core.Config{
		Host: host, Accel: acc, Model: b.Model, Devices: b.Devices,
		Cores: 16, Seed: 42, AccelClock: clk, IntraParallel: intra,
	}
	sys := core.Build(cfg)
	r := sys.Run(b.Build(&sys.Ctx))
	sys.Release()
	return r
}

// CPUOnly reruns the applications with accelerator calls removed and
// compares NEX's and gem5's simulated time against true native execution
// (the reference engine) — §6.5's error breakdown.
func CPUOnly(w io.Writer) error {
	benches := workloads.CPUOnlyBenches()
	var jobs []func() core.Result
	for _, b := range benches {
		b := b
		jobs = append(jobs,
			func() core.Result { return run(b, core.HostReference, core.AccelDSim, runOpts{}) },
			func() core.Result { return run(b, core.HostNEX, core.AccelDSim, runOpts{}) },
			func() core.Result { return run(b, core.HostGem5, core.AccelDSim, runOpts{}) })
	}
	res := runJobs(jobs)

	fmt.Fprintf(w, "%-22s %12s %10s %10s\n", "benchmark", "native", "NEX err", "gem5 err")
	var nexErrs, gemErrs []float64
	for i, b := range benches {
		native, nexR, gemR := res[3*i], res[3*i+1], res[3*i+2]
		ne := stats.RelErr(nexR.SimTime, native.SimTime)
		ge := stats.RelErr(gemR.SimTime, native.SimTime)
		nexErrs = append(nexErrs, ne)
		gemErrs = append(gemErrs, ge)
		fmt.Fprintf(w, "%-22s %12s %9.1f%% %9.1f%%\n",
			b.Name, fmtDur(native.SimTime), ne*100, ge*100)
	}
	ns, gs := stats.Summarize(nexErrs), stats.Summarize(gemErrs)
	fmt.Fprintf(w, "NEX:  avg %.1f%%, max %.1f%%\n", ns.Avg*100, ns.Max*100)
	fmt.Fprintf(w, "gem5: avg %.1f%%, max %.1f%%\n", gs.Avg*100, gs.Max*100)
	return nil
}

// Tail compares the 90th-percentile Protoacc task latency between
// NEX+DSim and gem5+RTL (§6.8). Task latencies come from the device's
// per-task log.
func Tail(w io.Writer) error {
	benches := []string{"protoacc-bench0", "protoacc-bench1", "protoacc-bench2",
		"protoacc-bench3", "protoacc-bench4", "protoacc-bench5"}
	var jobs []func() vclock.Duration
	for _, name := range benches {
		name := name
		jobs = append(jobs,
			func() vclock.Duration { return taskP90(name, core.HostGem5, core.AccelRTL) },
			func() vclock.Duration { return taskP90(name, core.HostNEX, core.AccelDSim) })
	}
	p90s := runJobs(jobs)

	fmt.Fprintf(w, "%-18s %12s %12s %9s\n", "benchmark", "gem5+RTL p90", "NEX+DSim p90", "rel err")
	var errs []float64
	for i, name := range benches {
		base, got := p90s[2*i], p90s[2*i+1]
		e := stats.RelErr(got, base)
		note := ""
		if base < vclock.Microsecond {
			// The paper excludes Protoacc-bench1 for the same reason: at
			// this scale CPU variance dominates relative error.
			note = "  (sub-1us: excluded from avg)"
		} else {
			errs = append(errs, e)
		}
		fmt.Fprintf(w, "%-18s %12s %12s %8.1f%%%s\n", name, fmtDur(base), fmtDur(got), e*100, note)
	}
	fmt.Fprintf(w, "avg p90 error: %.1f%%\n", stats.Summarize(errs).Avg*100)
	return nil
}

// taskP90 runs a Protoacc benchmark and extracts the p90 task latency.
func taskP90(name string, host core.HostKind, acc core.AccelKind) vclock.Duration {
	b := benchByName(name)
	cfg := core.Config{Host: host, Accel: acc, Model: b.Model,
		Devices: b.Devices, Cores: 16, Seed: 42, IntraParallel: intra}
	sys := core.Build(cfg)
	sys.Run(b.Build(&sys.Ctx))
	spans := protoTaskSpans(sys)
	lat := make([]vclock.Duration, 0, len(spans))
	for _, s := range spans {
		lat = append(lat, s.Done.Sub(s.Submit))
	}
	return stats.Percentile(lat, 90)
}

// protoTaskSpans extracts the Protoacc per-task latency log from a
// system's device.
func protoTaskSpans(sys *core.System) []protoacc.TaskSpan {
	return accel.Unwrap(sys.Ctx.Devices[0]).(interface{ Latencies() []protoacc.TaskSpan }).Latencies()
}

// SeedSweep characterizes the NEX error model's distribution: the same
// benchmark under ten calibration seeds, against the exact-time
// reference. The paper reports single numbers per benchmark; this sweep
// shows the spread a user should expect across hosts/calibrations.
func SeedSweep(w io.Writer) error {
	benches := []string{"vta-resnet18", "jpeg-decode", "protoacc-bench1"}
	const seeds = 10

	var jobs []func() core.Result
	for _, name := range benches {
		b := benchByName(name)
		jobs = append(jobs, func() core.Result {
			return run(b, core.HostReference, core.AccelDSim, runOpts{})
		})
		for seed := uint64(1); seed <= seeds; seed++ {
			seed := seed
			jobs = append(jobs, func() core.Result {
				return run(b, core.HostNEX, core.AccelDSim, runOpts{seed: seed})
			})
		}
	}
	res := runJobs(jobs)

	fmt.Fprintf(w, "%-18s %8s %8s %8s   per-seed errors\n", "benchmark", "avg", "max", "min")
	for bi, name := range benches {
		off := bi * (seeds + 1)
		ref := res[off]
		var errs []float64
		line := ""
		for i := 1; i <= seeds; i++ {
			e := stats.RelErr(res[off+i].SimTime, ref.SimTime)
			errs = append(errs, e)
			line += fmt.Sprintf(" %.1f%%", e*100)
		}
		s := stats.Summarize(errs)
		fmt.Fprintf(w, "%-18s %7.1f%% %7.1f%% %7.1f%%  %s\n",
			name, s.Avg*100, s.Max*100, s.Min*100, line)
	}
	return nil
}
