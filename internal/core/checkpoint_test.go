package core_test

import (
	"bytes"
	"testing"

	"nexsim/internal/core"
	"nexsim/internal/interconnect"
	"nexsim/internal/workloads"
)

// buildSys assembles a system + program for one bench and config shaper.
func buildSys(t *testing.T, bench string, shape func(*core.Config)) (*core.System, func() core.Result, string) {
	t.Helper()
	b, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim,
		Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42}
	if shape != nil {
		shape(&cfg)
	}
	sys := core.Build(cfg)
	prog := b.Build(&sys.Ctx)
	return sys, func() core.Result { return sys.Run(prog) }, bench
}

// checkpointOf runs the prefix on a fresh system and returns its blob.
func checkpointOf(t *testing.T, bench string, shape func(*core.Config)) []byte {
	t.Helper()
	b, _ := workloads.ByName(bench)
	cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim,
		Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42}
	if shape != nil {
		shape(&cfg)
	}
	sys := core.Build(cfg)
	defer sys.Reap() // free the thread goroutines parked at the halt
	prog := b.Build(&sys.Ctx)
	if _, completed := sys.RunPrefix(prog); completed {
		t.Fatalf("%s: prefix ran to completion", bench)
	}
	blob, err := sys.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", bench, err)
	}
	return blob
}

// resumeFrom restores blob into a fresh system and runs it out.
func resumeFrom(t *testing.T, blob []byte, bench string, shape func(*core.Config)) core.Result {
	t.Helper()
	b, _ := workloads.ByName(bench)
	cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim,
		Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42}
	if shape != nil {
		shape(&cfg)
	}
	sys := core.Build(cfg)
	prog := b.Build(&sys.Ctx)
	if err := sys.RestoreCheckpoint(blob, prog); err != nil {
		t.Fatalf("%s: restore: %v", bench, err)
	}
	return sys.ResumeRun()
}

// sameRun compares everything except wall-clock.
func sameRun(t *testing.T, label string, got, want core.Result) {
	t.Helper()
	if got.SimTime != want.SimTime {
		t.Errorf("%s: SimTime %v, want %v", label, got.SimTime, want.SimTime)
	}
	if got.NEXStats != want.NEXStats {
		t.Errorf("%s: NEXStats diverged:\n got  %+v\n want %+v", label, got.NEXStats, want.NEXStats)
	}
	if len(got.Devices) != len(want.Devices) {
		t.Fatalf("%s: %d device stats, want %d", label, len(got.Devices), len(want.Devices))
	}
	for i := range got.Devices {
		if got.Devices[i] != want.Devices[i] {
			t.Errorf("%s: device %d stats diverged:\n got  %+v\n want %+v",
				label, i, got.Devices[i], want.Devices[i])
		}
	}
}

// TestCheckpointResumeMatchesRun is the end-to-end fork differential:
// prefix+checkpoint+restore+resume must equal a straight run on every
// accelerator family.
func TestCheckpointResumeMatchesRun(t *testing.T) {
	for _, bench := range []string{"jpeg-decode", "vta-resnet18", "protoacc-bench0"} {
		_, straight, _ := buildSys(t, bench, nil)
		want := straight()
		blob := checkpointOf(t, bench, nil)
		got := resumeFrom(t, blob, bench, nil)
		sameRun(t, bench, got, want)
	}
}

// TestCheckpointSharedAcrossLateBinding: one prefix blob (taken on the
// normalized configuration) must fork correctly into every late-binding
// variant — different accelerator engine, DMA level, fabric, channel.
func TestCheckpointSharedAcrossLateBinding(t *testing.T) {
	const bench = "vta-resnet18"
	blob := checkpointOf(t, bench, nil) // normalized: DSim, default fabric, LLC

	onchip := interconnect.OnChip4
	variants := []struct {
		name  string
		shape func(*core.Config)
	}{
		{"accel-rtl", func(c *core.Config) { c.Accel = core.AccelRTL }},
		{"dma-l2", func(c *core.Config) { c.DMATarget = core.DMAL2 }},
		{"fabric-onchip", func(c *core.Config) { c.Fabric = &onchip }},
		{"channel", func(c *core.Config) { c.UseChannel = true }},
	}
	for _, v := range variants {
		_, straight, _ := buildSys(t, bench, v.shape)
		want := straight()
		got := resumeFrom(t, blob, bench, v.shape)
		sameRun(t, v.name, got, want)
	}
}

// TestCheckpointForkWholeCatalog is the fork differential over every
// accelerated catalog bench. One prefix blob per bench, taken on the
// normalized DSim configuration as the sweep planner takes it, forks
// into a DSim target and an RTL target behind the co-simulation
// channel, both with device stepper lanes live; each fork must equal a
// straight run of its target. Devices carry no checkpoint section, so
// this pins that a fresh device re-clocked to the halt time is the
// device the prefix left behind.
func TestCheckpointForkWholeCatalog(t *testing.T) {
	targets := []struct {
		name  string
		shape func(*core.Config)
	}{
		{"dsim", func(c *core.Config) { c.IntraParallel = 2 }},
		{"rtl-channel", func(c *core.Config) {
			c.Accel = core.AccelRTL
			c.UseChannel = true
			c.IntraParallel = 2
		}},
	}
	for _, b := range workloads.Catalog() {
		if b.Model == core.AccelNone {
			continue
		}
		blob := checkpointOf(t, b.Name, nil)
		for _, tg := range targets {
			_, straight, _ := buildSys(t, b.Name, tg.shape)
			want := straight()
			got := resumeFrom(t, blob, b.Name, tg.shape)
			sameRun(t, b.Name+"/"+tg.name, got, want)
		}
	}
}

// TestCheckpointContentAddressed: the blob is a pure function of the
// prefix — identical prefixes encode byte-identically.
func TestCheckpointContentAddressed(t *testing.T) {
	a := checkpointOf(t, "vta-resnet18", nil)
	b := checkpointOf(t, "vta-resnet18", nil)
	if !bytes.Equal(a, b) {
		t.Fatal("identical prefixes produced different checkpoint blobs")
	}
	c := checkpointOf(t, "protoacc-bench0", nil)
	if bytes.Equal(a, c) {
		t.Fatal("different prefixes produced the same blob")
	}
}

// restoreTarget builds a fresh system + program and returns a closure
// that attempts to restore a (possibly damaged) blob into it.
func restoreTarget(t *testing.T, bench string) func([]byte) error {
	t.Helper()
	b, _ := workloads.ByName(bench)
	cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim,
		Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42}
	sys := core.Build(cfg)
	prog := b.Build(&sys.Ctx)
	return func(blob []byte) error { return sys.RestoreCheckpoint(blob, prog) }
}

// TestRestoreCorruptBlob: restoring a damaged checkpoint must fail with
// an error, never panic or silently accept. Truncations, header damage
// and framing damage must all be detected.
func TestRestoreCorruptBlob(t *testing.T) {
	blob := checkpointOf(t, "vta-resnet18", nil)
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "WRONG!")
			return c
		}},
		{"truncated-header", func(b []byte) []byte { return b[:4] }},
		{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated-one", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing-garbage", func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0xDE, 0xAD)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			restore := restoreTarget(t, "vta-resnet18")
			if err := restore(tc.mangle(blob)); err == nil {
				t.Fatal("corrupt blob restored without error")
			}
		})
	}
}

// TestRestoreBitFlippedBlob sweeps single-bit flips across the blob:
// every attempt must return normally (error or not) — a panic anywhere
// fails the test. Flips in payload bytes may decode "successfully" into
// different-but-well-formed state; that is acceptable (blobs never
// leave process memory, so nothing checksums them), crashing is not.
func TestRestoreBitFlippedBlob(t *testing.T) {
	blob := checkpointOf(t, "vta-resnet18", nil)
	// Stride through the blob so the test stays fast on large snapshots.
	stride := len(blob)/97 + 1
	for off := 0; off < len(blob); off += stride {
		c := append([]byte(nil), blob...)
		c[off] ^= 0x10
		restore := restoreTarget(t, "vta-resnet18")
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit flip at offset %d: restore panicked: %v", off, r)
				}
			}()
			_ = restore(c)
		}()
	}
}

func TestCheckpointRefusals(t *testing.T) {
	// Non-NEX host cannot checkpoint; RunPrefix degrades to a full run.
	b, _ := workloads.ByName("jpeg-decode")
	sys := core.Build(core.Config{Host: core.HostReference, Accel: core.AccelDSim,
		Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42})
	if sys.CanCheckpoint() {
		t.Fatal("reference host claims checkpoint support")
	}
	res, completed := sys.RunPrefix(b.Build(&sys.Ctx))
	if !completed || res.SimTime <= 0 {
		t.Fatal("non-checkpointable RunPrefix did not degrade to a full run")
	}
	if _, err := sys.Checkpoint(); err == nil {
		t.Fatal("reference host produced a checkpoint")
	}
}
