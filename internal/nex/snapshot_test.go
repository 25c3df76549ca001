package nex

import (
	"bytes"
	"testing"

	"nexsim/internal/app"
	"nexsim/internal/checkpoint"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// snapProg is a prefix-rich device workload: threads compute, contend on
// a mutex, write a task buffer, and sleep before the main thread rings
// the device doorbell and polls it — exercising spawns, parking, IRQ-free
// wake paths, light/heavy task traps, and warps ahead of the halt point.
func snapProg(taskbuf mem.Addr, rounds int) app.Program {
	return app.Program{Main: func(env app.Env) {
		var mu app.Mutex
		var wg app.WaitGroup
		wg.Add(3)
		for i := 0; i < 3; i++ {
			env.Spawn("w", func(we app.Env) {
				for j := 0; j < rounds; j++ {
					mu.Lock(we)
					we.ComputeFor(700 * vclock.Nanosecond)
					mu.Unlock(we)
				}
				wg.Done(we)
			})
		}
		env.SlipStream(func() {
			env.ComputeFor(30 * us)
		})
		var buf [8]byte
		buf[0] = 0xa5
		for i := 0; i < 8; i++ {
			env.TaskWrite(taskbuf+mem.Addr(i*8), buf[:])
		}
		env.Sleep(3 * us)
		wg.Wait(env)
		env.MMIOWrite(0x8000_0000, 1)
		for env.MMIORead(0x8000_0000) == 0 {
			env.Sleep(2 * us)
		}
		env.ComputeFor(5 * us)
	}}
}

// snapRig builds an engine + device + task buffer for snapshot tests.
func snapRig(cfg Config) (*Engine, *trapDevice, mem.Addr) {
	e := New(cfg)
	dev := &trapDevice{busy: 20 * us}
	attach(e, dev)
	region := e.Mem().Alloc("taskbuf", 4096)
	return e, dev, region.Base
}

func snapCfg() Config {
	return Config{Epoch: 1 * us, Seed: 42, VirtualCores: 2}
}

func TestRunPrefixHaltsBeforeDeviceTouch(t *testing.T) {
	e, dev, taskbuf := snapRig(snapCfg())
	_, completed := e.RunPrefix(snapProg(taskbuf, 10))
	if completed {
		t.Fatal("prefix ran to completion despite device interaction")
	}
	if !e.Halted() {
		t.Fatal("engine not halted")
	}
	if dev.reads != 0 || dev.pending {
		t.Fatal("device was touched before the halt")
	}
}

func TestRunPrefixCompletesWithoutDevices(t *testing.T) {
	e := New(snapCfg())
	res, completed := e.RunPrefix(app.Program{Main: func(env app.Env) {
		env.ComputeFor(10 * us)
	}})
	if !completed {
		t.Fatal("device-free program did not complete")
	}
	if res.SimTime < 10*us {
		t.Fatalf("SimTime = %v", res.SimTime)
	}
}

// TestPrefixResumeMatchesStraightRun is the fork-from-checkpoint
// differential: RunPrefix+ResumeRun on one engine must equal Run on an
// identically configured engine, field for field.
func TestPrefixResumeMatchesStraightRun(t *testing.T) {
	for _, mode := range []SyncMode{Lazy, Eager, Hybrid} {
		cfg := snapCfg()
		cfg.Mode = mode

		eA, devA, bufA := snapRig(cfg)
		want := eA.Run(snapProg(bufA, 10))

		eB, devB, bufB := snapRig(cfg)
		_, completed := eB.RunPrefix(snapProg(bufB, 10))
		if completed {
			t.Fatalf("mode %v: prefix completed", mode)
		}
		got := eB.ResumeRun()

		if got != want {
			t.Errorf("mode %v: resumed run diverged:\n got  %+v\n want %+v", mode, got, want)
		}
		if devA.reads != devB.reads {
			t.Errorf("mode %v: device reads %d != %d", mode, devB.reads, devA.reads)
		}
	}
}

// TestRestoreMatchesStraightRun is the cross-engine differential: a
// snapshot restored into a fresh engine must continue byte-identically.
func TestRestoreMatchesStraightRun(t *testing.T) {
	for _, mode := range []SyncMode{Lazy, Eager, Hybrid} {
		cfg := snapCfg()
		cfg.Mode = mode

		eA, devA, bufA := snapRig(cfg)
		want := eA.Run(snapProg(bufA, 10))

		eB, _, bufB := snapRig(cfg)
		if _, completed := eB.RunPrefix(snapProg(bufB, 10)); completed {
			t.Fatalf("mode %v: prefix completed", mode)
		}
		enc := checkpoint.NewEncoder()
		if err := eB.SnapshotTo(enc); err != nil {
			t.Fatalf("mode %v: snapshot: %v", mode, err)
		}

		eC, devC, bufC := snapRig(cfg)
		dec, err := checkpoint.NewDecoder(enc.Bytes())
		if err != nil {
			t.Fatalf("mode %v: decode: %v", mode, err)
		}
		if err := eC.Restore(dec, snapProg(bufC, 10)); err != nil {
			t.Fatalf("mode %v: restore: %v", mode, err)
		}
		if !dec.Done() {
			t.Fatalf("mode %v: snapshot bytes left over (err=%v)", mode, dec.Err())
		}
		got := eC.ResumeRun()

		if got != want {
			t.Errorf("mode %v: restored run diverged:\n got  %+v\n want %+v", mode, got, want)
		}
		if devA.reads != devC.reads {
			t.Errorf("mode %v: device reads %d != %d", mode, devC.reads, devA.reads)
		}
		// The restored memory image must match the straight run's.
		var a, c [64]byte
		eA.Mem().ReadAt(bufA, a[:])
		eC.Mem().ReadAt(bufC, c[:])
		if !bytes.Equal(a[:], c[:]) {
			t.Errorf("mode %v: task buffer contents diverged", mode)
		}
	}
}

// TestSnapshotContentAddressed: two engines running the same prefix must
// produce byte-identical blobs (the content hash is the sharing key).
func TestSnapshotContentAddressed(t *testing.T) {
	blob := func() []byte {
		e, _, buf := snapRig(snapCfg())
		if _, completed := e.RunPrefix(snapProg(buf, 10)); completed {
			t.Fatal("prefix completed")
		}
		enc := checkpoint.NewEncoder()
		if err := e.SnapshotTo(enc); err != nil {
			t.Fatal(err)
		}
		return enc.Bytes()
	}
	a, b := blob(), blob()
	if !bytes.Equal(a, b) {
		t.Fatal("identical prefixes produced different blobs")
	}
}

func TestSnapshotRequiresHalt(t *testing.T) {
	e := New(snapCfg())
	e.Run(app.Program{Main: func(env app.Env) { env.ComputeFor(1 * us) }})
	if err := e.SnapshotTo(checkpoint.NewEncoder()); err == nil {
		t.Fatal("snapshot of completed engine succeeded")
	}
}

func TestRestoreRejectsConfigMismatch(t *testing.T) {
	e, _, buf := snapRig(snapCfg())
	if _, completed := e.RunPrefix(snapProg(buf, 10)); completed {
		t.Fatal("prefix completed")
	}
	enc := checkpoint.NewEncoder()
	if err := e.SnapshotTo(enc); err != nil {
		t.Fatal(err)
	}

	cfg := snapCfg()
	cfg.Epoch = 2 * us // host-side parameter differs: not the same prefix
	e2, _, buf2 := snapRig(cfg)
	dec, err := checkpoint.NewDecoder(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(dec, snapProg(buf2, 10)); err == nil {
		t.Fatal("restore accepted mismatched config")
	}
}

// TestRestoreRejectsDeviceCountMismatch: devices carry no section of
// their own, so the engine fingerprint must refuse a blob taken with a
// different number of attached devices.
func TestRestoreRejectsDeviceCountMismatch(t *testing.T) {
	e, _, buf := snapRig(snapCfg())
	if _, completed := e.RunPrefix(snapProg(buf, 10)); completed {
		t.Fatal("prefix completed")
	}
	enc := checkpoint.NewEncoder()
	if err := e.SnapshotTo(enc); err != nil {
		t.Fatal(err)
	}

	e2, _, buf2 := snapRig(snapCfg())
	extra := &trapDevice{busy: 20 * us}
	b := &DeviceBinding{Device: extra, MMIOBase: 0x8000_1000, MMIOSize: 4096}
	extra.host = e2.HostFor(b)
	e2.Attach(b)
	dec, err := checkpoint.NewDecoder(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(dec, snapProg(buf2, 10)); err == nil {
		t.Fatal("restore accepted a blob taken with a different device count")
	}
}

func TestRestoreRejectsDivergentProgram(t *testing.T) {
	e, _, buf := snapRig(snapCfg())
	if _, completed := e.RunPrefix(snapProg(buf, 10)); completed {
		t.Fatal("prefix completed")
	}
	enc := checkpoint.NewEncoder()
	if err := e.SnapshotTo(enc); err != nil {
		t.Fatal(err)
	}

	e2, _, buf2 := snapRig(snapCfg())
	dec, err := checkpoint.NewDecoder(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// A different round count changes the yield sequence; replay must
	// detect the divergence rather than silently corrupt state.
	if err := e2.Restore(dec, snapProg(buf2, 25)); err == nil {
		t.Fatal("restore accepted a divergent program")
	}
}

func TestRestoreRejectsTruncatedBlob(t *testing.T) {
	e, _, buf := snapRig(snapCfg())
	if _, completed := e.RunPrefix(snapProg(buf, 10)); completed {
		t.Fatal("prefix completed")
	}
	enc := checkpoint.NewEncoder()
	if err := e.SnapshotTo(enc); err != nil {
		t.Fatal(err)
	}
	blob := enc.Bytes()

	e2, _, buf2 := snapRig(snapCfg())
	dec, err := checkpoint.NewDecoder(blob[:len(blob)-7])
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(dec, snapProg(buf2, 10)); err == nil {
		t.Fatal("restore accepted a truncated blob")
	}
}

// TestPrefixRecordingDoesNotPerturbStraightRuns: a run with recording
// that never halts (no devices) must produce the seed-identical result.
func TestPrefixRecordingDoesNotPerturbStraightRuns(t *testing.T) {
	prog := func() app.Program {
		return app.Program{Main: func(env app.Env) {
			var wg app.WaitGroup
			wg.Add(2)
			for i := 0; i < 2; i++ {
				env.Spawn("w", func(we app.Env) {
					we.ComputeFor(20 * us)
					wg.Done(we)
				})
			}
			wg.Wait(env)
		}}
	}
	eA := New(snapCfg())
	want := eA.Run(prog())
	eB := New(snapCfg())
	got, completed := eB.RunPrefix(prog())
	if !completed {
		t.Fatal("device-free prefix halted")
	}
	if got != want {
		t.Fatalf("RunPrefix-completed result diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestTickModeHalt: in tick mode the first synchronization point is the
// halt boundary (task-buffer writes stay light and prefix-safe).
func TestTickModeHalt(t *testing.T) {
	cfg := snapCfg()
	cfg.TickMode = true

	mk := func(e *Engine, taskbuf mem.Addr) app.Program {
		return app.Program{Main: func(env app.Env) {
			var buf [8]byte
			for i := 0; i < 16; i++ {
				env.TaskWrite(taskbuf+mem.Addr(i*8), buf[:])
			}
			env.Tick()
			env.ComputeFor(4 * us)
		}}
	}

	eA, _, bufA := snapRig(cfg)
	want := eA.Run(mk(eA, bufA))

	eB, _, bufB := snapRig(cfg)
	if _, completed := eB.RunPrefix(mk(eB, bufB)); completed {
		t.Fatal("tick-mode prefix completed without halting on the tick")
	}
	enc := checkpoint.NewEncoder()
	if err := eB.SnapshotTo(enc); err != nil {
		t.Fatal(err)
	}

	eC, _, bufC := snapRig(cfg)
	dec, err := checkpoint.NewDecoder(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := eC.Restore(dec, mk(eC, bufC)); err != nil {
		t.Fatal(err)
	}
	if got := eC.ResumeRun(); got != want {
		t.Fatalf("tick-mode restore diverged:\n got  %+v\n want %+v", got, want)
	}
}
