// Package nex implements the NEX native-execution orchestrator (paper
// §3): an epoch-based host engine that advances application threads in
// fixed virtual-time epochs (EBS scheduling), traps on accelerator
// interactions, and synchronizes accelerator simulators lazily, eagerly,
// or with hybrid periodic synchronization.
//
// Where the paper runs real x86 threads under a sched-ext scheduler with
// ptrace-intercepted MMIO, this implementation runs simulated threads
// (package coro) whose compute segments carry their measured native
// durations. The engine's cost structure matches the real system's:
// O(1) host work per thread-epoch and per trap, independent of the
// instruction count — which is why it is orders of magnitude faster than
// the cycle-level host in package cpu, exactly as in the paper.
//
// The accuracy mechanics are also the paper's:
//
//   - traps resolve at their exact virtual time, but the trapping thread
//     resumes only at the next epoch boundary (§3.2 "tick mode" reduces
//     this), so every interaction loses part of an epoch;
//   - threads woken by other threads (locks, queues, barriers) become
//     runnable only at the next epoch boundary (§6.6's cross-epoch
//     synchronization error, growing with epoch duration);
//   - compute durations carry a systematic calibration bias (the paper's
//     δ constant is obtained by calibration and imperfect) plus a
//     per-epoch pipeline-refill loss that grows relatively as epochs
//     shrink (§6.6's hypothesis for the 500 ns anomaly);
//   - underprovisioned physical cores add interference error (§6.6).
package nex

import (
	"fmt"
	"sort"
	"time"

	"nexsim/internal/accel"
	"nexsim/internal/app"
	"nexsim/internal/coro"
	"nexsim/internal/faults"
	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/parsim"
	"nexsim/internal/trace"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// SyncMode selects how accelerator simulators are synchronized (§3.1).
type SyncMode int

const (
	// Lazy advances accelerator simulators only when the application
	// interacts with them (default). Interrupts are not promptly
	// delivered; they surface at the next trap or idle period.
	Lazy SyncMode = iota
	// Eager advances accelerator simulators in lock-step at every epoch
	// boundary, like conventional full-stack simulators.
	Eager
	// Hybrid layers periodic synchronization (every SyncInterval) on top
	// of lazy synchronization; interrupts are delivered at interval
	// boundaries (§3.1, §6.7).
	Hybrid
)

func (m SyncMode) String() string {
	switch m {
	case Lazy:
		return "lazy"
	case Eager:
		return "eager"
	default:
		return "hybrid"
	}
}

// Policy is the complementary scheduling policy (§3.3, §A.1): when more
// threads are runnable than virtual cores, it picks which run this epoch.
type Policy interface {
	// Select returns up to vcores threads from runnable (which is in
	// thread-creation order) to execute in the coming epoch.
	Select(epoch int64, runnable []*coro.Thread, vcores int) []*coro.Thread
}

// DeviceBinding attaches an accelerator simulator to NEX.
type DeviceBinding struct {
	Device   accel.Device
	MMIOBase mem.Addr
	MMIOSize uint64
	DMAPort  memsys.Port
	MMIOCost vclock.Duration
	// MMIOWriteCost is the cost of a posted register write; default 120ns.
	MMIOWriteCost vclock.Duration

	idx int // position in Engine.devices, set by Attach
}

// Config parameterizes a NEX engine.
type Config struct {
	Name  string
	Clock vclock.Hz // simulated host core frequency

	// Epoch is the virtual-time epoch duration e (default 1µs, the
	// paper's sweet spot).
	Epoch vclock.Duration

	// VirtualCores is the simulated machine's core count (default 16).
	VirtualCores int

	// PhysicalCores models the host cores NEX may use (default =
	// VirtualCores). Underprovisioning (fewer physical than virtual)
	// degrades both speed and accuracy (§6.6).
	PhysicalCores int

	// Mode selects the synchronization mode; SyncInterval applies to
	// Hybrid (default 10µs).
	Mode         SyncMode
	SyncInterval vclock.Duration

	// TickMode makes task-buffer accesses non-trapping; drivers signal
	// batched synchronization points via Env.Tick (§3.2).
	TickMode bool

	// Policy is the complementary scheduling policy; nil selects the
	// default fair policy of §A.1.
	Policy Policy

	// SlipEpoch is the epoch duration inside SlipStream regions
	// (default 20ms).
	SlipEpoch vclock.Duration

	// Seed drives the deterministic error model (calibration bias,
	// interference). Same seed, same program → identical results.
	Seed uint64

	// CalSigma is the standard deviation of the systematic calibration
	// bias (default 0.025). RefillLoss is the per-epoch virtual-time
	// accounting loss (default 12ns).
	CalSigma   float64
	RefillLoss vclock.Duration

	// MaxEpochs aborts the run after this many scheduler epochs (0 =
	// unlimited). MaxWall aborts after this much host wall-clock time,
	// checked every few loop iterations (0 = unlimited). An aborted
	// engine sets BudgetExceeded; the caller must Reap it.
	MaxEpochs int64
	MaxWall   time.Duration

	// Intra >= 2 advances accelerator simulators on up to Intra-1
	// stepper goroutines under conservative lookahead (DESIGN.md §10);
	// results stay byte-identical to serial.
	Intra int

	// Faults is the per-run fault injector (nil = none). Device-bound
	// traps cross the device.dispatch site.
	Faults *faults.Injector

	Memory         *mem.Memory
	Trace          *trace.Recorder
	TaskAccessCost vclock.Duration
}

// Stats counts the engine work that determines NEX's real-world cost.
type Stats struct {
	Epochs       int64 // epochs in which application threads executed
	ThreadEpochs int64 // thread×epoch execution slots
	Rounds       int64 // physical-core rounds (≥ ThreadEpochs/PhysicalCores)
	Traps        int64 // MMIO/task-buffer/tick traps
	Syncs        int64 // accelerator synchronization events
	IRQs         int64 // interrupts delivered
	IdleJumps    int64 // multi-epoch jumps while all threads were idle
}

// Real-system per-event costs for ModeledWall, fitted once to the
// paper's single-thread Table 4 row (its slowdown is dominated by
// per-epoch kernel crossings, §7).
const (
	// PerEpochCost is the scheduler's fixed cost per epoch (timer
	// interrupt + kernel crossing).
	PerEpochCost = 13600 * vclock.Nanosecond
	// PerThreadEpochCost is the per-core bookkeeping per thread-epoch.
	PerThreadEpochCost = 450 * vclock.Nanosecond
	// PerSyncCost is a periodic synchronization: pausing all threads and
	// exchanging messages with every accelerator simulator.
	PerSyncCost = 30 * vclock.Microsecond
)

// ModeledWall estimates the wall-clock time this run would take on the
// real NEX (whose epochs execute native code and cross the kernel),
// given the engine's measured event counts: fixed per-epoch scheduling,
// per-thread-epoch management, one epoch of native execution per
// physical-core round, and the periodic synchronization exchanges.
func (s Stats) ModeledWall(epoch vclock.Duration) vclock.Duration {
	return vclock.Duration(s.Epochs)*PerEpochCost +
		vclock.Duration(s.ThreadEpochs)*PerThreadEpochCost +
		vclock.Duration(s.Rounds)*epoch +
		vclock.Duration(s.Syncs)*PerSyncCost
}

// Engine is one NEX orchestrator instance.
type Engine struct {
	cfg     Config
	mem     *mem.Memory      //simlint:transient wiring; journal replay regenerates memory content
	devices []*DeviceBinding //simlint:transient wiring; only the count is encoded, Restore re-clocks fresh devices
	devTime vclock.Time

	threads []*coro.Thread
	live    int
	nextTID int
	irqWait map[int][]*coro.Thread
	pending []pendingIRQ

	// Scheduler hot-path state: the loop would otherwise rescan every
	// thread ever created, twice per epoch (minWake + runnableAt).
	//
	// active holds the threads that may be runnable (neither exited nor
	// parked), in creation order. Entries go stale in place when a thread
	// parks or exits and are swept out once they outnumber the live ones
	// (amortized O(1)); unparking re-inserts compacted-out threads by ID.
	active    []*coro.Thread //simlint:transient cache over threads; rebuilt as replay re-creates them
	inactiveN int            //simlint:transient stale-entry count for the active cache
	// wakeMin caches minWake; it is invalidated only when the thread
	// holding the minimum moves its wake time up.
	wakeMin   vclock.Time //simlint:transient memo of minWake; recomputed on demand
	wakeValid bool        //simlint:transient validity bit of the wakeMin memo
	// runnableBuf is runnableAt's reusable scratch slice; its contents
	// are only live until the next epoch's scan.
	runnableBuf []*coro.Thread //simlint:transient per-epoch scratch, dead between epochs

	now      vclock.Time // current epoch start
	truncate bool        // a SlipStream exit requested epoch truncation
	finishT  vclock.Time // virtual time of the last thread activity
	nextSync vclock.Time // next hybrid periodic synchronization boundary
	epochIdx int64
	calBias  float64       //simlint:transient derived from cfg.Seed and CalSigma in New
	interfer float64       //simlint:transient derived from cfg in New (underprovisioning factor)
	rng      *xrand.Stream //simlint:transient re-seeded from cfg.Seed; journal replay re-walks the stream

	// Checkpoint machinery (snapshot.go). While recording, every thread
	// yield is journaled so a fresh engine can replay the prefix; while
	// haltArmed, the first device-bound request freezes the engine
	// mid-epoch into frame instead of being processed.
	recording bool //simlint:transient snapshot-machinery mode flag, set by RunPrefix itself
	haltArmed bool //simlint:transient snapshot-machinery mode flag, set by RunPrefix itself
	journal   []journalEntry
	frame     *haltFrame

	// Watchdog budget state: loopTicks counts loop iterations (for the
	// amortized wall check), wallStart anchors MaxWall, exceeded latches
	// a budget abort.
	loopTicks int64     //simlint:transient watchdog bookkeeping, never simulation state
	wallStart time.Time //simlint:transient watchdog wall anchor, never simulation state
	exceeded  bool      //simlint:transient watchdog latch, never simulation state

	// Parallel intra-run state (nil/zero when serial).
	crew     *parsim.Crew  //simlint:transient per-run lanes; Run builds and shuts them down
	devWall  time.Duration //simlint:transient wall-time attribution of the last run
	ranLanes int           //simlint:transient lane count of the last run

	Stats Stats
}

// haltFrame freezes the position inside an epoch's slot loop at the
// moment a prefix halt fired: the selected threads, which slot halted,
// the epoch bounds, and the yielded-but-unprocessed request.
type haltFrame struct {
	selected []*coro.Thread
	idx      int
	start    vclock.Time
	end      vclock.Time
	req      coro.Request
}

type pendingIRQ struct {
	at     vclock.Time
	vector int
}

// tstate is NEX's per-thread state.
type tstate struct {
	th       *coro.Thread
	wakeAt   vclock.Time // earliest epoch start the thread may run at
	parked   bool
	pending  bool
	deficit  vclock.Duration // remaining virtual time of current segment
	vruntime vclock.Duration
	compress []float64
	jumpt    int
	slip     bool
	seedCtr  uint64
	exited   bool
	inActive bool        // present in Engine.active (possibly stale)
	cursor   vclock.Time // thread-local virtual time (for Env.Now)
}

func st(t *coro.Thread) *tstate { return t.Data.(*tstate) }

// New builds a NEX engine.
func New(cfg Config) *Engine {
	if cfg.Clock == 0 {
		cfg.Clock = 3 * vclock.GHz
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1 * vclock.Microsecond
	}
	if cfg.VirtualCores <= 0 {
		cfg.VirtualCores = 16
	}
	if cfg.PhysicalCores <= 0 {
		cfg.PhysicalCores = cfg.VirtualCores
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = 10 * vclock.Microsecond
	}
	if cfg.SlipEpoch == 0 {
		cfg.SlipEpoch = 20 * vclock.Millisecond
	}
	if cfg.Policy == nil {
		cfg.Policy = NewFairPolicy()
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1 * vclock.Microsecond
	}
	if fp, ok := cfg.Policy.(*FairPolicy); ok {
		fp.SetEpoch(cfg.Epoch)
	}
	if cfg.Memory == nil {
		cfg.Memory = mem.New(0x1000_0000)
	}
	if cfg.TaskAccessCost == 0 {
		cfg.TaskAccessCost = 90 * vclock.Nanosecond
	}
	if cfg.CalSigma == 0 {
		cfg.CalSigma = 0.025
	}
	if cfg.RefillLoss == 0 {
		cfg.RefillLoss = 12 * vclock.Nanosecond
	}
	rng := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	e := &Engine{
		cfg:     cfg,
		mem:     cfg.Memory,
		irqWait: make(map[int][]*coro.Thread),
		rng:     rng,
	}
	// Systematic calibration bias: the δ calibration constant is close
	// but not perfect, so native-time accounting carries a small
	// engine-wide multiplicative error.
	e.calBias = rng.Derive("calibration").Jitter(cfg.CalSigma)
	// Underprovisioning interference: sharing physical cores disturbs
	// the microarchitectural state NEX cannot see.
	if cfg.PhysicalCores < cfg.VirtualCores {
		frac := 1 - float64(cfg.PhysicalCores)/float64(cfg.VirtualCores)
		e.interfer = 0.155 * frac * rng.Derive("interference").Jitter(0.2)
	}
	return e
}

// Mem returns the simulated physical memory.
func (e *Engine) Mem() *mem.Memory { return e.mem }

// Attach registers a device binding; must precede Run.
func (e *Engine) Attach(b *DeviceBinding) {
	if b.MMIOCost == 0 {
		b.MMIOCost = 850 * vclock.Nanosecond
	}
	if b.MMIOWriteCost == 0 {
		b.MMIOWriteCost = 120 * vclock.Nanosecond
	}
	b.idx = len(e.devices)
	e.devices = append(e.devices, b)
	// The NEX runtime protects the device's MMIO window so that any
	// faulting access first catches the accelerator complex up — the
	// mprotect/ptrace mechanism of §3.2 on the simulated substrate.
	r := e.mem.RegionAt(b.MMIOBase)
	if r != nil {
		e.mem.Protect(r, func(kind mem.AccessKind, addr mem.Addr, size int) {
			e.advanceDevices(e.now)
		})
	}
}

// HostFor returns the accel.Host for a binding.
func (e *Engine) HostFor(b *DeviceBinding) accel.Host { return &hostShim{e: e, b: b} }

// Result summarizes a run.
type Result struct {
	SimTime vclock.Duration
	Threads int
	Stats   Stats
}

// Run executes the program to completion (or until its budget is
// exceeded — check BudgetExceeded and Reap on abort).
func (e *Engine) Run(prog app.Program) Result {
	main := e.newThread("main", prog.Main)
	e.setWake(st(main), 0)
	e.nextSync = vclock.Time(e.cfg.SyncInterval)
	defer e.stopCrew()
	e.startCrew()
	e.startWatchdog()
	e.loop()
	return e.result()
}

// startCrew spawns the stepper lanes for parallel intra-run mode; no-op
// when serial.
func (e *Engine) startCrew() {
	if e.cfg.Intra < 2 || len(e.devices) == 0 || e.crew != nil {
		return
	}
	devs := make([]accel.Device, len(e.devices))
	for i, b := range e.devices {
		devs[i] = b.Device
	}
	e.crew = parsim.New(devs, e.cfg.Intra-1)
	e.ranLanes = e.crew.Lanes()
}

// stopCrew quiesces and terminates the stepper lanes, folding their
// busy time into the run's device-wall statistic.
func (e *Engine) stopCrew() {
	if e.crew == nil {
		return
	}
	e.devWall += e.crew.DeviceWall()
	e.crew.Shutdown()
	e.crew = nil
}

// IntraStats reports the stepper-lane count of the last Run (0 when it
// ran serially) and the cumulative wall time the steppers spent
// advancing devices.
func (e *Engine) IntraStats() (lanes int, deviceWall time.Duration) {
	return e.ranLanes, e.devWall
}

// startWatchdog anchors the wall-clock budget at run (or resume) start.
func (e *Engine) startWatchdog() {
	if e.cfg.MaxWall > 0 {
		e.wallStart = time.Now() //simlint:allow nondet-time watchdog wall budget, never simulation state
	}
}

// overBudget reports whether the run blew its epoch or wall budget. The
// epoch bound is exact (checked at every loop turn); the wall bound is
// amortized over 64 loop iterations to keep the hot path syscall-free.
func (e *Engine) overBudget() bool {
	if e.cfg.MaxEpochs > 0 && e.epochIdx >= e.cfg.MaxEpochs {
		return true
	}
	if e.cfg.MaxWall > 0 {
		e.loopTicks++
		if e.loopTicks&63 == 0 && time.Since(e.wallStart) > e.cfg.MaxWall { //simlint:allow nondet-time watchdog wall budget, never simulation state
			return true
		}
	}
	return false
}

// BudgetExceeded reports whether the last Run/ResumeRun aborted on its
// budget. An exceeded engine holds live parked thread goroutines until
// Reap is called.
func (e *Engine) BudgetExceeded() bool { return e.exceeded }

// Reap force-terminates every live thread goroutine of an abandoned run
// (see coro.Kill). The engine must not be used afterwards.
func (e *Engine) Reap() {
	for _, th := range e.threads {
		th.Kill()
	}
	e.live = 0
}

func (e *Engine) result() Result {
	return Result{SimTime: vclock.Duration(e.lastActivity()), Threads: e.nextTID, Stats: e.Stats}
}

// lastActivity returns the virtual time of the last thread activity; the
// engine's `now` may have been rounded up to an epoch boundary past it.
func (e *Engine) lastActivity() vclock.Time {
	if e.finishT > 0 {
		return e.finishT
	}
	return e.now
}

func (e *Engine) newThread(name string, fn app.ThreadFunc) *coro.Thread {
	id := e.nextTID
	e.nextTID++
	var th *coro.Thread
	th = coro.NewThread(id, fmt.Sprintf("%s#%d", name, id), func() {
		fn(&env{e: e, th: th})
	})
	th.Data = &tstate{th: th, wakeAt: vclock.Never, inActive: true}
	e.threads = append(e.threads, th)
	// New threads have the highest ID so far, so appending keeps the
	// active list in creation order.
	e.active = append(e.active, th)
	e.live++
	return th
}

// setWake is the single mutation point for a thread's wake time; it
// maintains the cached minimum so minWake rarely rescans.
//
//simlint:hotpath runs on every thread yield and wake
func (e *Engine) setWake(s *tstate, t vclock.Time) {
	old := s.wakeAt
	if t == old {
		return
	}
	s.wakeAt = t
	if !e.wakeValid {
		return
	}
	if t < e.wakeMin {
		e.wakeMin = t
		return
	}
	if old == e.wakeMin {
		// The thread holding the minimum moved later; the new minimum is
		// unknown until the next minWake.
		e.wakeValid = false
	}
}

// markInactive records that a thread on the active list parked or
// exited; the entry is swept lazily by maybeCompact.
func (e *Engine) markInactive() {
	e.inactiveN++
	e.maybeCompact()
}

// ensureActive puts an unparked thread back on the active list (or just
// rebalances the stale count if its entry was never swept).
func (e *Engine) ensureActive(s *tstate) {
	if s.inActive {
		if e.inactiveN > 0 {
			e.inactiveN--
		}
		return
	}
	i := sort.Search(len(e.active), func(j int) bool { return e.active[j].ID > s.th.ID })
	e.active = append(e.active, nil)
	copy(e.active[i+1:], e.active[i:])
	e.active[i] = s.th
	s.inActive = true
}

// maybeCompact sweeps stale entries once they outnumber live ones.
func (e *Engine) maybeCompact() {
	if e.inactiveN < 32 || e.inactiveN*2 < len(e.active) {
		return
	}
	kept := e.active[:0]
	for _, th := range e.active {
		s := st(th)
		if s.exited || s.parked {
			s.inActive = false
			continue
		}
		kept = append(kept, th)
	}
	e.active = kept
	e.inactiveN = 0
}

// epochEnd returns the end of the epoch starting at e.now, honoring
// SlipStream when every runnable thread is inside a SlipStream region.
func (e *Engine) epochLen(selected []*coro.Thread) vclock.Duration {
	if len(selected) == 0 {
		return e.cfg.Epoch
	}
	for _, th := range selected {
		if !st(th).slip {
			return e.cfg.Epoch
		}
	}
	return e.cfg.SlipEpoch
}

// roundUp returns the first epoch boundary at or after t.
func (e *Engine) roundUp(t vclock.Time) vclock.Time {
	ep := vclock.Time(e.cfg.Epoch)
	return (t + ep - 1) / ep * ep
}
