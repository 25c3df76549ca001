package experiments

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/faults"
)

// chaosBase is the cheapest device-attached benchmark run: the channel
// sites (chan.send/chan.recv) only exist on a UseChannel spec and the
// dispatch site only on a spec with a device model, so the matrix needs
// a real accelerator workload, not an NPB kernel.
var chaosBase = Spec{Bench: "jpeg-decode", EpochNS: 1000, UseChannel: true}

// firedSnapshot copies the process-global fired counters; tests diff
// around a run because the counters are monotonic.
func firedSnapshot() map[string]int64 {
	sites, counts := faults.FiredBySite()
	m := make(map[string]int64, len(sites))
	for i, s := range sites {
		m[s] = counts[i]
	}
	return m
}

// firedDelta runs f and returns how many faults fired per site during it.
func firedDelta(f func()) map[string]int64 {
	before := firedSnapshot()
	f()
	after := firedSnapshot()
	d := map[string]int64{}
	for s, n := range after {
		if n > before[s] {
			d[s] = n - before[s]
		}
	}
	return d
}

func withFault(base Spec, f FaultSpec) Spec {
	s := base
	s.Faults = []FaultSpec{f}
	return s
}

// TestFaultMatrix is the chaos acceptance test: every injection site ×
// {fail, delay}, under fixed seeds. Exact outcomes are asserted per
// site class — engine-site failures surface as injected errors, store
// degradation never fails a run, delays keep runs deterministic — and
// the fired counters prove each site actually fired (a silently-skipped
// site would pass a weaker test).
func TestFaultMatrix(t *testing.T) {
	oldCk := CheckpointsEnabled()
	SetCheckpoints(true)
	ResetCheckpointStore()
	defer func() {
		SetCheckpoints(oldCk)
		ResetCheckpointStore()
	}()

	baseline, err := RunSpec(chaosBase)
	if err != nil {
		t.Fatal(err)
	}

	for _, site := range faults.Sites() {
		for _, op := range []string{"fail", "delay"} {
			t.Run(site+"/"+op, func(t *testing.T) {
				if site == faults.SiteStorePut {
					testStorePutFault(t, op, baseline)
					return
				}
				spec := withFault(chaosBase, FaultSpec{Site: site, Op: op})
				var r1, r2 core.Result
				var err1, err2 error
				d := firedDelta(func() {
					r1, err1 = RunSpec(spec)
					r2, err2 = RunSpec(spec)
				})
				if d[site] < 2 {
					t.Fatalf("site %s fired %d times across two runs, want 2", site, d[site])
				}
				switch {
				case op == "fail" && site != faults.SiteStoreGet:
					// Engine and worker sites: the fault aborts the run
					// with a structured, classifiable error.
					if !errors.Is(err1, faults.ErrInjected) {
						t.Fatalf("fail at %s: err = %v, want injected", site, err1)
					}
					if err2 == nil || err1.Error() != err2.Error() {
						t.Fatalf("injected failure not reproducible:\n %v\n %v", err1, err2)
					}
				case op == "fail": // store.get
					// Degraded cache: the run falls back to a straight run
					// and must produce the fault-free result.
					if err1 != nil || err2 != nil {
						t.Fatalf("store.get failure failed the run: %v / %v", err1, err2)
					}
					if r1.SimTime != baseline.SimTime {
						t.Fatalf("degraded-cache run %v != fault-free %v", r1.SimTime, baseline.SimTime)
					}
				default: // delay
					if err1 != nil || err2 != nil {
						t.Fatalf("delay at %s failed the run: %v / %v", site, err1, err2)
					}
					if r1.SimTime != r2.SimTime || r1.NEXStats != r2.NEXStats {
						t.Fatalf("delayed run not deterministic: %v vs %v", r1.SimTime, r2.SimTime)
					}
					if site == faults.SitePoolWorker || site == faults.SiteStoreGet {
						// Host-side stalls never feed simulation state.
						if r1.SimTime != baseline.SimTime {
							t.Fatalf("host-side delay changed simulated time: %v != %v",
								r1.SimTime, baseline.SimTime)
						}
					}
				}
			})
		}
	}

	// Faults off again: the chaos above must not have perturbed the
	// fault-free path (byte-identical tables).
	after, err := RunSpec(chaosBase)
	if err != nil {
		t.Fatal(err)
	}
	if after.SimTime != baseline.SimTime || after.NEXStats != baseline.NEXStats {
		t.Fatalf("fault-free run changed after chaos: %v vs %v", after.SimTime, baseline.SimTime)
	}
}

// testStorePutFault covers the prefix-publish site, which is only
// crossed by the sweep planner's warm phase — so it needs a batch whose
// specs share a prefix group (late-binding difference only).
func testStorePutFault(t *testing.T, op string, baseline core.Result) {
	ResetCheckpointStore()
	faulted := withFault(chaosBase, FaultSpec{Site: faults.SiteStorePut, Op: op})
	variant := chaosBase
	variant.AccelClockMHz = 2500 // late-binding: same prefix group
	var results []core.Result
	var err error
	d := firedDelta(func() {
		results, err = RunSpecs([]Spec{faulted, variant})
	})
	if err != nil {
		t.Fatal(err)
	}
	if d[faults.SiteStorePut] < 1 {
		t.Fatalf("store.put never fired (delta %v)", d)
	}
	// Whether the publish failed (group degrades to straight runs) or
	// was merely delayed (group forks from the late blob), results are
	// byte-identical to fault-free runs.
	if results[0].SimTime != baseline.SimTime {
		t.Fatalf("faulted-group run %v != fault-free %v", results[0].SimTime, baseline.SimTime)
	}
	want, err := RunSpec(variant)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].SimTime != want.SimTime {
		t.Fatalf("group sibling %v != its solo run %v", results[1].SimTime, want.SimTime)
	}
}

// TestFaultAttemptsWindowExpires pins the self-healing contract: a
// fault armed only for attempt 0 fails the first attempt and lets the
// retry succeed with the fault-free result.
func TestFaultAttemptsWindowExpires(t *testing.T) {
	baseline, err := RunSpec(chaosBase)
	if err != nil {
		t.Fatal(err)
	}
	spec := withFault(chaosBase, FaultSpec{Site: faults.SitePoolWorker, Attempts: 1})
	if _, err := RunSpecAttempt(spec, 0, 0); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("attempt 0: err = %v, want injected", err)
	}
	r, err := RunSpecAttempt(spec, 1, 0)
	if err != nil {
		t.Fatalf("attempt 1 (fault expired): %v", err)
	}
	if r.SimTime != baseline.SimTime || r.NEXStats != baseline.NEXStats {
		t.Fatalf("healed attempt %v != fault-free run %v", r.SimTime, baseline.SimTime)
	}
}

// TestFaultSpecAddressing: the fault plan is part of the spec's content
// address (a failing run is a reproducible spec), and normalization
// fills the plan's defaults.
func TestFaultSpecAddressing(t *testing.T) {
	plain, err := chaosBase.ID()
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := withFault(chaosBase, FaultSpec{Site: faults.SiteChanSend}).ID()
	if err != nil {
		t.Fatal(err)
	}
	if plain == faulted {
		t.Fatal("fault plan did not change the content address")
	}
	n, err := withFault(chaosBase, FaultSpec{Site: faults.SiteChanSend, Op: "delay"}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Faults[0].Hit != 1 || n.Faults[0].DelayPS == 0 {
		t.Fatalf("fault defaults not normalized: %+v", n.Faults[0])
	}
	bad := []Spec{
		withFault(chaosBase, FaultSpec{Site: "no.such.site"}),
		withFault(chaosBase, FaultSpec{Site: faults.SiteChanSend, Op: "explode"}),
		withFault(chaosBase, FaultSpec{Site: faults.SiteChanSend, Rate: 1.5}),
		withFault(chaosBase, FaultSpec{Site: faults.SiteChanSend, Hit: -1}),
	}
	for i, s := range bad {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("bad fault spec %d validated", i)
		}
	}
}

// TestBudgetExceeded pins the watchdog on both host engines: an
// over-budget run returns a structured core.ErrBudgetExceeded instead
// of wedging, on the epoch budget and on the wall budget.
func TestBudgetExceeded(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		wall time.Duration
	}{
		{"nex-epochs", Spec{Bench: "jpeg-decode", EpochNS: 1000, MaxEpochs: 1}, 0},
		{"reference-steps", Spec{Bench: "npb-ep.8", Host: "reference", MaxEpochs: 1}, 0},
		{"nex-wall", Spec{Bench: "jpeg-decode", EpochNS: 1000}, time.Nanosecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunSpecAttempt(tc.spec, 0, tc.wall)
			if !errors.Is(err, core.ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
		})
	}
}

// TestBudgetAbortNoGoroutineLeak: an aborted run's parked thread
// goroutines are reaped, so repeated aborts don't accumulate leaked
// goroutines (run with -race to catch unsynchronized teardown).
func TestBudgetAbortNoGoroutineLeak(t *testing.T) {
	spec := Spec{Bench: "jpeg-decode", EpochNS: 1000, MaxEpochs: 1}
	// One warm-up abort so any lazily-started machinery is resident
	// before the leak baseline is taken.
	if _, err := RunSpec(spec); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatal("warm-up run did not abort on budget")
	}
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		if _, err := RunSpec(spec); !errors.Is(err, core.ErrBudgetExceeded) {
			t.Fatalf("run %d: no budget abort", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by budget aborts: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPrefixSnapshotNoGoroutineLeak: a prefix run is halted at its first
// device interaction, with its coroutine threads parked mid-program.
// Snapshotting it must reap those threads; otherwise every computed
// prefix pins its goroutines (and their memory) for the process's life.
func TestPrefixSnapshotNoGoroutineLeak(t *testing.T) {
	oldCk := CheckpointsEnabled()
	SetCheckpoints(true)
	ResetCheckpointStore()
	defer func() {
		SetCheckpoints(oldCk)
		ResetCheckpointStore()
	}()
	runtime.GC()
	before := runtime.NumGoroutine()
	for _, id := range []string{"vtasweep", "protosweep"} {
		exp, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Run(io.Discard); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if st := CheckpointStats(); st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("prefix store saw %d misses and %d hits; the sweeps must compute and fork prefixes", st.Misses, st.Hits)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by prefix snapshots: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
