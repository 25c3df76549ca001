// Package core is the public façade of the simulator: it assembles a
// full-stack simulation from a host engine (reference, NEX, or the
// gem5-style cycle-level host), an accelerator engine (DSim or
// RTL-style) per device, the interconnect/cache/memory stack between
// them, and an application program — the four compositions of the
// paper's Table 1 plus the exact-time reference that stands in for the
// FPGA testbeds.
package core

import (
	"errors"
	"fmt"
	"time"

	"nexsim/internal/accel"
	"nexsim/internal/accel/jpeg"
	"nexsim/internal/accel/protoacc"
	"nexsim/internal/accel/vta"
	"nexsim/internal/app"
	"nexsim/internal/cachesim"
	"nexsim/internal/cpu"
	"nexsim/internal/dram"
	"nexsim/internal/exacthost"
	"nexsim/internal/faults"
	"nexsim/internal/interconnect"
	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/nex"
	"nexsim/internal/simbricks"
	"nexsim/internal/trace"
	"nexsim/internal/vclock"
)

// HostKind selects the host simulator.
type HostKind int

const (
	// HostReference is the exact-time engine with native compute timing —
	// the stand-in for the real system / FPGA testbed.
	HostReference HostKind = iota
	// HostNEX is the NEX orchestrator.
	HostNEX
	// HostGem5 is the exact-time engine with the cycle-level CPU model.
	HostGem5
)

func (h HostKind) String() string {
	switch h {
	case HostReference:
		return "reference"
	case HostNEX:
		return "nex"
	default:
		return "gem5"
	}
}

// AccelKind selects the accelerator simulator.
type AccelKind int

const (
	AccelDSim AccelKind = iota
	AccelRTL
)

func (a AccelKind) String() string {
	if a == AccelDSim {
		return "dsim"
	}
	return "rtl"
}

// AccelModel names an accelerator type.
type AccelModel string

const (
	AccelNone     AccelModel = ""
	AccelJPEG     AccelModel = "jpeg"
	AccelVTA      AccelModel = "vta"
	AccelProtoacc AccelModel = "protoacc"
)

// DMALevel selects which cache level serves accelerator DMAs.
type DMALevel int

const (
	DMALLC DMALevel = iota
	DMAL2
)

// Config assembles one full-stack simulation.
type Config struct {
	Host  HostKind
	Accel AccelKind

	Model   AccelModel
	Devices int // accelerator instances (default 1 when Model != "")

	// Fabric is the host-accelerator interconnect (default: paper
	// defaults per accelerator — PCIe 400ns for JPEG/VTA, on-chip 4ns
	// for Protoacc).
	Fabric *interconnect.Config
	// DMATarget selects the cache level serving DMAs (default LLC).
	DMATarget DMALevel

	// IOTLB, when set, translates every accelerator DMA through a
	// per-device I/O TLB (the §7 future-work extension).
	IOTLB *interconnect.IOTLBConfig

	// Clock is the host core frequency (default 3GHz); AccelClock the
	// accelerator frequency (default 2GHz).
	Clock      vclock.Hz
	AccelClock vclock.Hz

	// Cores is the host core count available to the application.
	Cores int

	// NEX-specific options (ignored for other hosts).
	NEX nex.Config
	// NEXNoTick disables tick-mode drivers under NEX (every task-buffer
	// access traps) — the §3.2 ablation.
	NEXNoTick bool

	// UseChannel routes every host-device interaction through a
	// SimBricks-style message channel instead of the tight in-process
	// integration (§A.2's comparison).
	UseChannel bool

	// IntraParallel is the intra-run worker count (DESIGN.md §10): with
	// N >= 2, accelerator engines advance on up to N-1 stepper
	// goroutines under conservative lookahead while the host engine
	// runs on its own goroutine, synchronizing at deterministic
	// barriers. Every table, trace, and checkpoint is byte-identical to
	// the serial schedule. 0 or 1 = serial (the default).
	IntraParallel int

	// Budget bounds the run (watchdog): a run that exceeds it aborts
	// with a structured ErrBudgetExceeded from TryRun instead of
	// running (or hanging) forever. The zero value is unlimited.
	Budget Budget

	// Faults is the per-run deterministic fault injector (nil = none);
	// it is threaded through the engines' device-dispatch path and every
	// SimBricks channel.
	Faults *faults.Injector

	// Trace enables coarse-grained trace recording.
	Trace *trace.Recorder

	Seed uint64
}

// Budget is a per-run watchdog: MaxEpochs caps NEX scheduler epochs
// (the exact-time hosts apply it to event-queue steps, their closest
// analogue), MaxWall caps host wall-clock time. Zero fields are
// unlimited.
type Budget struct {
	MaxEpochs int64
	MaxWall   time.Duration
}

// ErrBudgetExceeded reports a run aborted by its Budget. The abort is
// cooperative and structured: the engine stops within one epoch (or
// step/wall check) of the bound, every thread goroutine is reaped, and
// TryRun returns an error wrapping this sentinel.
var ErrBudgetExceeded = errors.New("core: run budget exceeded")

// Ctx is handed to workload builders: where the devices live and how to
// reach memory.
type Ctx struct {
	Mem      *mem.Memory
	MMIO     []mem.Addr // per device instance
	TaskBufs []mem.Addr // per device instance (4KB each)
	// Arena is a large scratch region for workload data (program
	// streams, images, message graphs).
	Arena mem.Addr
	// Devices are the constructed accelerator simulators (for schema
	// registration etc.).
	Devices []accel.Device
	// Clock is the host clock.
	Clock vclock.Hz
}

// System is a fully assembled simulation.
type System struct {
	cfg   Config
	Ctx   Ctx
	binds []accel.Device
	// Channels holds the SimBricks channels when UseChannel is set.
	Channels []*simbricks.Channel
	runRef   func(prog app.Program) Result
	nexEng   *nex.Engine
	exactEng *exacthost.Engine
	gem5CPU  *cpu.Model
	caches   []*cachesim.Cache
}

// Result reports one completed run.
type Result struct {
	SimTime  vclock.Duration // simulated (virtual) time
	WallTime time.Duration   // host wall-clock time of the run
	Host     HostKind
	Accel    AccelKind
	NEXStats nex.Stats // populated for NEX hosts
	Devices  []accel.DeviceStats

	// Intra is the effective intra-run worker count: 1 + the number of
	// device stepper lanes that ran (1 = fully serial).
	Intra int
	// DeviceWall is the cumulative stepper busy time, which overlaps
	// WallTime when Intra > 1 and is folded into it when serial.
	DeviceWall time.Duration
}

// Slowdown is WallTime / SimTime.
func (r Result) Slowdown() float64 {
	if r.SimTime <= 0 {
		return 0
	}
	return float64(r.WallTime.Nanoseconds()) / r.SimTime.Nanoseconds()
}

// Build assembles a system.
func Build(cfg Config) *System {
	if cfg.Clock == 0 {
		cfg.Clock = 3 * vclock.GHz
	}
	if cfg.AccelClock == 0 {
		cfg.AccelClock = 2 * vclock.GHz
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 16
	}
	if cfg.Model != AccelNone && cfg.Devices <= 0 {
		cfg.Devices = 1
	}

	m := mem.New(0x1000_0000)
	sys := &System{cfg: cfg}
	sys.Ctx.Mem = m
	sys.Ctx.Clock = cfg.Clock

	intra := cfg.IntraParallel
	if intra < 1 {
		intra = 1
	}
	if intra > 1 {
		// Host and stepper goroutines touch disjoint byte ranges of the
		// functional memory concurrently; arm the page-table lock.
		m.SetConcurrent()
	}

	fabricCfg := sys.fabricConfig()

	// Build devices + bindings, then the host engine around them.
	type binding struct {
		dev     accel.Device
		mmio    mem.Addr
		taskBuf mem.Addr
		dmaPort memsys.Port
	}
	// Register accesses traverse the same fabric as DMAs: a read stalls
	// for the round trip, a write is posted.
	mmioReadCost := 2*fabricCfg.LinkLatency + 50*vclock.Nanosecond
	mmioWriteCost := fabricCfg.LinkLatency/4 + 60*vclock.Nanosecond

	var binds []binding
	for i := 0; i < cfg.Devices; i++ {
		mmio := mem.Addr(0x8000_0000 + uint64(i)*0x1_0000)
		tb := m.Alloc(fmt.Sprintf("taskbuf%d", i), 4096)
		// Banked memory-system stack: each device's DMA port owns a
		// private LLC slice and DRAM channel (CAT-style way
		// partitioning, §6.4's design sweep applies per bank). Host
		// task accesses never touch this stack (they carry a fixed
		// TaskAccessCost, and the gem5 CPU model has its own private
		// hierarchy), so banking keeps single-device runs structurally
		// identical while making each device's timing state private —
		// the property parallel intra-run mode (DESIGN.md §10) relies
		// on for serial↔parallel byte-identity.
		dramCtl := dram.New(dram.DDR4)
		llc := cachesim.New(cachesim.LLC, dramCtl)
		sys.caches = append(sys.caches, llc)
		var dmaTarget memsys.Port = llc
		if cfg.DMATarget == DMAL2 {
			l2 := cachesim.New(cachesim.L2, llc)
			sys.caches = append(sys.caches, l2)
			dmaTarget = l2
		}
		fabric := interconnect.New(fabricCfg, dmaTarget)
		if cfg.IOTLB != nil {
			fabric.EnableIOTLB(*cfg.IOTLB)
		}
		dev := newDevice(cfg.Model, cfg.Accel, cfg.AccelClock)
		if cfg.UseChannel {
			ch := simbricks.NewChannel(0)
			ch.SetFaults(cfg.Faults)
			sys.Channels = append(sys.Channels, ch)
			dev = simbricks.WrapDevice(dev, ch)
		}
		binds = append(binds, binding{dev: dev, mmio: mmio, taskBuf: tb.Base, dmaPort: fabric})
		sys.Ctx.MMIO = append(sys.Ctx.MMIO, mmio)
		sys.Ctx.TaskBufs = append(sys.Ctx.TaskBufs, tb.Base)
		sys.Ctx.Devices = append(sys.Ctx.Devices, dev)
	}
	arena := m.Alloc("arena", 64<<20)
	sys.Ctx.Arena = arena.Base

	switch cfg.Host {
	case HostNEX:
		ncfg := cfg.NEX
		// Tick-mode drivers are the default (task-buffer writes are
		// batched behind doorbells); the explicit-trap ablation sets
		// NEXNoTick.
		ncfg.TickMode = !cfg.NEXNoTick
		ncfg.Clock = cfg.Clock
		if ncfg.VirtualCores == 0 {
			ncfg.VirtualCores = cfg.Cores
		}
		ncfg.Memory = m
		ncfg.Trace = cfg.Trace
		ncfg.Seed = cfg.Seed
		ncfg.MaxEpochs = cfg.Budget.MaxEpochs
		ncfg.MaxWall = cfg.Budget.MaxWall
		ncfg.Faults = cfg.Faults
		ncfg.Intra = intra
		eng := nex.New(ncfg)
		for _, b := range binds {
			db := &nex.DeviceBinding{Device: b.dev, MMIOBase: b.mmio,
				MMIOSize: 0x1_0000, DMAPort: b.dmaPort,
				MMIOCost: mmioReadCost, MMIOWriteCost: mmioWriteCost}
			setHost(b.dev, eng.HostFor(db))
			eng.Attach(db)
		}
		sys.nexEng = eng
		sys.runRef = func(prog app.Program) Result {
			start := time.Now() //simlint:allow nondet-time Result.WallTime is speed reporting, never simulation state
			r := eng.Run(prog)
			wall := time.Since(start) //simlint:allow nondet-time
			lanes, devWall := eng.IntraStats()
			return Result{SimTime: r.SimTime, WallTime: wall,
				Host: cfg.Host, Accel: cfg.Accel, NEXStats: r.Stats,
				Intra: 1 + lanes, DeviceWall: devWall}
		}

	case HostReference, HostGem5:
		ecfg := exacthost.Config{
			Clock: cfg.Clock, Cores: cfg.Cores, Memory: m, Trace: cfg.Trace,
			MaxSteps: cfg.Budget.MaxEpochs, MaxWall: cfg.Budget.MaxWall,
			Intra: intra,
		}
		if cfg.Host == HostGem5 {
			model := cpu.New(cpu.Config{Clock: cfg.Clock})
			ecfg.Compute = model
			sys.gem5CPU = model
		}
		eng := exacthost.New(ecfg)
		sys.exactEng = eng
		for _, b := range binds {
			db := &exacthost.DeviceBinding{Device: b.dev, MMIOBase: b.mmio,
				MMIOSize: 0x1_0000, DMAPort: b.dmaPort,
				MMIOCost: mmioReadCost, MMIOWriteCost: mmioWriteCost}
			setHost(b.dev, eng.HostFor(db))
			eng.Attach(db)
		}
		sys.runRef = func(prog app.Program) Result {
			start := time.Now() //simlint:allow nondet-time Result.WallTime is speed reporting, never simulation state
			r := eng.Run(prog)
			wall := time.Since(start) //simlint:allow nondet-time
			lanes, devWall := eng.IntraStats()
			return Result{SimTime: r.SimTime, WallTime: wall,
				Host: cfg.Host, Accel: cfg.Accel,
				Intra: 1 + lanes, DeviceWall: devWall}
		}
	}

	// Helper closure needs binds; keep them for stats.
	sys.binds = make([]accel.Device, len(binds))
	for i, b := range binds {
		sys.binds[i] = b.dev
	}
	return sys
}

// Release returns the system's pooled resources (the cache hierarchy)
// for reuse by a future Build. Call it once, after the last Run result
// has been extracted; the system must not be used afterwards. Releasing
// is purely an allocation optimization — a Build that reuses recycled
// parts is behaviorally identical to a fresh one.
func (s *System) Release() {
	for _, c := range s.caches {
		c.Recycle()
	}
	s.caches = nil
}

// CPUModel returns the gem5-style CPU model (nil for other hosts).
func (s *System) CPUModel() *cpu.Model { return s.gem5CPU }

// NEXEngine returns the NEX engine (nil for other hosts).
func (s *System) NEXEngine() *nex.Engine { return s.nexEng }

// fabricConfig picks the paper's default attachment per accelerator.
func (s *System) fabricConfig() interconnect.Config {
	if s.cfg.Fabric != nil {
		return *s.cfg.Fabric
	}
	if s.cfg.Model == AccelProtoacc {
		return interconnect.OnChip4
	}
	return interconnect.PCIe400
}

// Run executes the program on the assembled system. A budget abort
// panics (use TryRun for the structured error); systems without a
// Budget never abort.
func (s *System) Run(prog app.Program) Result {
	r, err := s.TryRun(prog)
	if err != nil {
		panic(err)
	}
	return r
}

// TryRun executes the program and returns a structured error when the
// run exceeds its Budget. On abort every thread goroutine is reaped
// (nothing leaks) and the partial Result is discarded.
func (s *System) TryRun(prog app.Program) (Result, error) {
	r := s.runRef(prog)
	if s.BudgetExceeded() {
		s.Reap()
		return Result{}, fmt.Errorf("%s/%s run aborted after %v simulated: %w",
			s.cfg.Host, s.cfg.Accel, r.SimTime, ErrBudgetExceeded)
	}
	for _, d := range s.binds {
		// Every runRef closure runs its engine's Run, which defers
		// stopCrew: by the time it returns, all lanes are joined and
		// shut down.
		r.Devices = append(r.Devices, d.Stats()) //simlint:allow lane-safety runRef engines stop their crew before returning
	}
	return r, nil
}

// BudgetExceeded reports whether the engine aborted on its Budget.
func (s *System) BudgetExceeded() bool {
	if s.nexEng != nil {
		return s.nexEng.BudgetExceeded()
	}
	if s.exactEng != nil {
		return s.exactEng.BudgetExceeded()
	}
	return false
}

// Reap force-terminates every live thread goroutine of an abandoned
// run (budget aborts, injected-fault panics). Idempotent; the system
// must not be Run again afterwards.
func (s *System) Reap() {
	if s.nexEng != nil {
		s.nexEng.Reap()
	}
	if s.exactEng != nil {
		s.exactEng.Reap()
	}
}

func newDevice(model AccelModel, kind AccelKind, clk vclock.Hz) accel.Device {
	switch model {
	case AccelJPEG:
		if kind == AccelDSim {
			return jpeg.NewDevice(clk)
		}
		return jpeg.NewRTLDevice(clk)
	case AccelVTA:
		if kind == AccelDSim {
			return vta.NewDevice(clk)
		}
		return vta.NewRTLDevice(clk)
	case AccelProtoacc:
		if kind == AccelDSim {
			return protoacc.NewDevice(clk)
		}
		return protoacc.NewRTLDevice(clk)
	default:
		panic("core: unknown accelerator model " + string(model))
	}
}

func setHost(d accel.Device, h accel.Host) {
	type hostSetter interface{ SetHost(accel.Host) }
	d.(hostSetter).SetHost(h)
}
