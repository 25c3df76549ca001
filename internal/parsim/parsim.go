// Package parsim runs accelerator engines on their own goroutines under
// conservative lookahead (core.Config.IntraParallel, DESIGN.md §10).
//
// The host engine grants each device a horizon — the earliest virtual
// time at which the host could next interact with it — and the device's
// stepper goroutine advances toward that horizon while the host keeps
// simulating. The host joins (waits for the stepper to reach its grant)
// before every observation of device state: an MMIO access, a NextEvent
// query, a checkpoint snapshot, or run teardown. Because a device's
// timing state is private in this codebase (each DMA port owns its LLC
// slice and DRAM channel — see core.Build) and devices in polling mode
// cannot raise interrupts, nothing the stepper does between grant and
// join is observable by the host, so the interleaving of host and
// device work cannot affect simulated state: every table, trace and
// checkpoint is byte-identical to the serial schedule. Devices whose
// driver has enabled interrupts report MayRaiseIRQ()==true and are
// advanced inline on the host goroutine instead (the serial schedule),
// which preserves byte-identity trivially.
//
// Grants compose: Advance(t1); Advance(t2 >= t1) is by the accel.Device
// contract equivalent to Advance(t2), so the host may coarsen or split
// horizons freely — parallel mode grants the same non-decreasing
// per-device target sequence the serial loop would, just from another
// goroutine.
package parsim

import (
	"sync"
	"sync/atomic"
	"time"

	"nexsim/internal/accel"
	"nexsim/internal/vclock"
)

// IRQCapable is the optional device predicate consulted before an
// asynchronous grant: a device that may raise an interrupt before the
// horizon must be advanced inline so delivery happens at the serial
// point. Devices that do not implement it are conservatively treated as
// capable.
type IRQCapable interface {
	MayRaiseIRQ() bool
}

// MayRaiseIRQ reports whether dev could raise an interrupt during an
// advance, unwrapping adapters. Unknown devices report true (inline
// advance, serial schedule).
func MayRaiseIRQ(dev accel.Device) bool {
	if c, ok := accel.Unwrap(dev).(IRQCapable); ok {
		return c.MayRaiseIRQ()
	}
	return true
}

// lane is one stepper goroutine driving a fixed subset of devices in
// device-index order.
type lane struct {
	devs []accel.Device

	mu      sync.Mutex
	cond    *sync.Cond
	granted vclock.Time // last horizon requested
	reached vclock.Time // horizon fully processed
	fault   any         // recovered stepper panic, re-raised at Join
	closed  bool

	busy atomic.Int64 // wall nanoseconds spent inside Advance
}

// Crew owns the stepper goroutines for one engine run.
type Crew struct {
	lanes  []*lane
	byDev  []*lane // device index -> lane
	closed bool
}

// New builds a crew of `lanes` stepper goroutines over the devices,
// assigned round-robin in device-index order. lanes is clamped to
// [1, len(devs)]. A nil return means no parallelism (no devices).
func New(devs []accel.Device, lanes int) *Crew {
	if len(devs) == 0 {
		return nil
	}
	if lanes < 1 {
		lanes = 1
	}
	if lanes > len(devs) {
		lanes = len(devs)
	}
	c := &Crew{byDev: make([]*lane, len(devs))}
	for i := 0; i < lanes; i++ {
		l := &lane{}
		l.cond = sync.NewCond(&l.mu)
		c.lanes = append(c.lanes, l)
	}
	for i, d := range devs {
		l := c.lanes[i%lanes]
		l.devs = append(l.devs, d)
		c.byDev[i] = l
	}
	for _, l := range c.lanes {
		go l.run() //simlint:allow stray-goroutine structured stepper, joined via Crew.Join/Shutdown
	}
	return c
}

// Lanes reports the number of stepper goroutines (the effective intra
// worker count recorded in Result.Intra alongside the host goroutine).
func (c *Crew) Lanes() int { return len(c.lanes) }

// run is the stepper goroutine body: wait for a new horizon, advance
// every device on the lane to it, publish completion.
func (l *lane) run() {
	for {
		l.mu.Lock()
		for l.granted == l.reached && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		t := l.granted
		dead := l.fault != nil
		l.mu.Unlock()

		var fault any
		if !dead {
			// A faulted lane's devices may hold arbitrary mid-panic
			// state; stop stepping them and only acknowledge grants
			// until the host observes the fault at a join.
			fault = l.advance(t)
		}

		l.mu.Lock()
		l.reached = t
		if fault != nil && l.fault == nil {
			l.fault = fault
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// advance catches every device on the lane up to t, converting a panic
// (e.g. an injected channel fault) into a stored fault for the host to
// re-raise at the join point.
func (l *lane) advance(t vclock.Time) (fault any) {
	defer func() {
		if r := recover(); r != nil {
			fault = r
		}
	}()
	start := time.Now() //simlint:allow nondet-time wall attribution only, never simulation state
	for _, d := range l.devs {
		d.Advance(t)
	}
	l.busy.Add(time.Since(start).Nanoseconds()) //simlint:allow nondet-time wall attribution only
	return nil
}

// Grant extends device i's horizon to t (no-op if t is not beyond the
// current grant). The stepper picks it up asynchronously.
func (c *Crew) Grant(i int, t vclock.Time) {
	l := c.byDev[i]
	l.mu.Lock()
	if t > l.granted {
		l.granted = t
		l.cond.Signal()
	}
	l.mu.Unlock()
}

// Join blocks until device i's lane has processed every grant, then
// re-raises any panic the stepper recovered (on the host goroutine,
// where the run's fault boundary expects it).
func (c *Crew) Join(i int) {
	c.byDev[i].join()
}

// JoinAll joins every lane.
func (c *Crew) JoinAll() {
	for _, l := range c.lanes {
		l.join()
	}
}

func (l *lane) join() {
	l.mu.Lock()
	for l.reached < l.granted && l.fault == nil {
		l.cond.Wait()
	}
	f := l.fault
	l.fault = nil
	if f != nil {
		// The lane is dead to further grants this run; mark it caught up
		// so Shutdown and later joins do not hang.
		l.reached = l.granted
	}
	l.mu.Unlock()
	if f != nil {
		panic(f)
	}
}

// DeviceWall reports cumulative wall time the steppers spent advancing
// devices.
func (c *Crew) DeviceWall() time.Duration {
	var n int64
	for _, l := range c.lanes {
		n += l.busy.Load()
	}
	return time.Duration(n)
}

// Shutdown joins and terminates the stepper goroutines. Any pending
// stepper fault is swallowed (Shutdown runs on teardown paths that have
// already decided the run's outcome). The crew must not be used
// afterwards.
func (c *Crew) Shutdown() {
	if c == nil || c.closed {
		return
	}
	c.closed = true
	for _, l := range c.lanes {
		l.mu.Lock()
		for l.reached < l.granted && l.fault == nil {
			l.cond.Wait()
		}
		l.closed = true
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}
