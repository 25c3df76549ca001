package experiments

import (
	"bytes"
	"errors"
	"testing"

	"nexsim/internal/core"
	"nexsim/internal/vclock"
)

func TestSpecNormalizedFillsDefaults(t *testing.T) {
	n, err := Spec{Bench: "jpeg-decode"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Host != "nex" || n.Accel != "dsim" || n.Cores != 16 || n.Seed != 42 {
		t.Fatalf("defaults not filled: %+v", n)
	}
	if n.SyncMode != "lazy" || n.DMATarget != "llc" {
		t.Fatalf("enum defaults not filled: %+v", n)
	}
	if n.ClockMHz != 3000 || n.AccelClockMHz != 2000 {
		t.Fatalf("clock defaults not filled: %+v", n)
	}
	if n.LinkLatencyNS != 400 {
		t.Fatalf("jpeg link latency default = %d, want 400 (PCIe)", n.LinkLatencyNS)
	}
	p, err := Spec{Bench: "protoacc-bench0"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if p.LinkLatencyNS != 4 {
		t.Fatalf("protoacc link latency default = %d, want 4 (on-chip)", p.LinkLatencyNS)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Bench: "no-such-bench"},
		{Bench: "jpeg-decode", Host: "qemu"},
		{Bench: "jpeg-decode", Accel: "verilator"},
		{Bench: "jpeg-decode", SyncMode: "sometimes"},
		{Bench: "jpeg-decode", DMATarget: "l3"},
		{Bench: "jpeg-decode", Cores: -1},
		{Bench: "vta-matmul", Devices: MaxDevices + 1},
	}
	for _, s := range bad {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("spec %+v validated, want error", s)
		}
		if _, err := RunSpec(s); err == nil {
			t.Errorf("RunSpec accepted invalid spec %+v", s)
		}
	}
	if _, err := RunSpecs([]Spec{{Bench: "jpeg-decode"}, {Bench: "nope"}}); err == nil {
		t.Error("RunSpecs accepted a batch with an invalid spec")
	}
	// core.Build gives every device its own memory stack before any run
	// budget applies, so the device bound is checked up front.
	if _, err := (Spec{Bench: "vta-matmul", Devices: MaxDevices + 1}).Normalized(); !errors.Is(err, ErrSpecLimit) {
		t.Errorf("devices=%d: err = %v, want ErrSpecLimit", MaxDevices+1, err)
	}
	if _, err := (Spec{Bench: "vta-matmul", Devices: MaxDevices}).Normalized(); err != nil {
		t.Errorf("devices=%d rejected: %v", MaxDevices, err)
	}
}

// TestSpecIDCanonical pins content addressing: explicit defaults and
// omitted fields share one address, and any semantic difference
// changes it.
func TestSpecIDCanonical(t *testing.T) {
	implicit := Spec{Bench: "npb-ep.8"}
	explicit := Spec{Bench: "npb-ep.8", Host: "nex", Accel: "dsim",
		Cores: 16, Seed: 42, SyncMode: "lazy", DMATarget: "llc",
		ClockMHz: 3000, AccelClockMHz: 2000, LinkLatencyNS: 400}
	a, err := implicit.ID()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.ID()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("explicit-default spec hashed differently:\n %s\n %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("ID length %d, want 64 hex chars", len(a))
	}
	c, err := Spec{Bench: "npb-ep.8", Seed: 7}.ID()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed produced the same content address")
	}
	j1, _ := implicit.CanonicalJSON()
	j2, _ := explicit.CanonicalJSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("canonical encodings differ:\n%s\n%s", j1, j2)
	}
}

// TestRunSpecDeterministic locks the property that makes
// content-addressed result caching sound: the same spec yields the
// same result, and matches the legacy run() path it replaces.
func TestRunSpecDeterministic(t *testing.T) {
	spec := Spec{Bench: "npb-cg.8", EpochNS: 1000}
	r1, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.SimTime != r2.SimTime || r1.NEXStats != r2.NEXStats {
		t.Fatalf("RunSpec not deterministic: %v/%v vs %v/%v",
			r1.SimTime, r1.NEXStats, r2.SimTime, r2.NEXStats)
	}
	legacy := run(benchByName("npb-cg.8"), core.HostNEX, core.AccelDSim,
		runOpts{nexEpoch: 1000 * vclock.Nanosecond})
	if r1.SimTime != legacy.SimTime {
		t.Fatalf("RunSpec (%v) diverges from legacy run path (%v)", r1.SimTime, legacy.SimTime)
	}
}

// TestRunSpecsOrderAndParallel checks batch results stay in spec order
// at any worker count.
func TestRunSpecsOrderAndParallel(t *testing.T) {
	specs := []Spec{
		{Bench: "npb-ep.8", Host: "reference"},
		{Bench: "npb-cg.8", Host: "reference"},
		{Bench: "npb-ep.8", Host: "nex", EpochNS: 1000},
	}
	serial, err := RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	old := Parallelism()
	SetParallelism(4)
	defer SetParallelism(old)
	par, err := RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].SimTime != par[i].SimTime {
			t.Fatalf("spec %d: serial %v != parallel %v", i, serial[i].SimTime, par[i].SimTime)
		}
	}
}
