// Package accel defines the interface between host simulators (NEX, the
// gem5-style engine, the reference engine) and accelerator simulators
// (DSim models and RTL-style cycle models).
//
// The contract mirrors the paper's adapter design (§5, §A.2): the host
// drives the device with register reads/writes and AdvanceUntil-style
// catch-up calls; the device drives the host with timed DMAs, zero-cost
// (functional) DMAs, and interrupts.
package accel

import (
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Device is an accelerator simulator as seen by a host engine.
//
// All methods are called from the host's single-threaded event loop. The
// host guarantees that `at` arguments are non-decreasing per device.
type Device interface {
	// Name identifies the device in traces.
	Name() string

	// RegRead reads a control register at byte offset off, at virtual
	// time `at`. The device must first internally catch up to `at`.
	RegRead(at vclock.Time, off mem.Addr) uint32

	// RegWrite writes a control register. Doorbell registers launch
	// tasks.
	RegWrite(at vclock.Time, off mem.Addr, v uint32)

	// Advance runs the device up to time t (the host's AdvanceUntil).
	// During the call the device may issue DMAs and raise interrupts
	// through its Host, all timestamped <= t.
	Advance(t vclock.Time)

	// NextEvent returns the earliest future time at which the device will
	// act on its own (complete a stage, issue a DMA, raise an interrupt),
	// or (vclock.Never, false) when idle. Hosts use it to fast-forward
	// idle devices (the FastForward primitive of §A.2) and to advance
	// time when all CPU threads are blocked.
	NextEvent() (vclock.Time, bool)

	// Stats returns cumulative device statistics.
	Stats() DeviceStats
}

// Unwrap peels wrapping adapters (anything with an Unwrap() Device
// method, such as the co-simulation channel's device adapter) off d and
// returns the innermost device.
func Unwrap(d Device) Device {
	for {
		u, ok := d.(interface{ Unwrap() Device })
		if !ok {
			return d
		}
		d = u.Unwrap()
	}
}

// DeviceStats is the common statistics block devices expose.
type DeviceStats struct {
	TasksStarted   int64
	TasksCompleted int64
	BusyTime       vclock.Duration // time with >=1 task in flight
	DMABytes       int64
	HostSteps      int64 // internal simulation steps (cycles or LPN firings)
}

// Host is the environment a host engine provides to a device.
type Host interface {
	// DMA issues a timed memory access on behalf of the device through
	// the configured interconnect + cache hierarchy and returns its
	// completion time. It affects virtual time (queueing, bandwidth) but
	// moves no data.
	DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time

	// ZeroCostRead / ZeroCostWrite move data between host memory and the
	// device functionally, without affecting virtual time (the paper's
	// zero-cost DMA, implemented on gem5 with functional accesses and
	// natively supported by NEX).
	ZeroCostRead(addr mem.Addr, p []byte)
	ZeroCostWrite(addr mem.Addr, p []byte)

	// RaiseIRQ delivers an interrupt from the device at virtual time at.
	// Delivery timing at the software level is host-policy (e.g. NEX
	// hybrid synchronization delivers at interval boundaries).
	RaiseIRQ(at vclock.Time, vector int)
}

// Binding couples a device with the fabric it is attached through; host
// engines own the mapping from MMIO addresses to bindings.
type Binding struct {
	Device   Device
	MMIOBase mem.Addr
	MMIOSize uint64
}

// Contains reports whether addr falls in the binding's MMIO window.
func (b *Binding) Contains(addr mem.Addr) bool {
	return addr >= b.MMIOBase && uint64(addr) < uint64(b.MMIOBase)+b.MMIOSize
}
