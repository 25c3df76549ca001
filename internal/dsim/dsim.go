// Package dsim implements the DSim di-simulator (paper §4): accelerator
// simulation on two decoupled tracks. The *performance track* is a
// Latency Petri Net that computes when things happen; the *functionality
// track* is the accelerator's functional simulator, which computes what
// the answers are. The two synchronize through tagged DMA FIFO queues
// (§4.3): the functional track runs first for each task, reading host
// memory through zero-cost DMAs and recording every DMA the accelerator
// would issue, tagged by hardware module; the LPN then replays those
// DMAs with accurate timestamps as its transitions fire.
//
// A DSim device is externally indistinguishable from the corresponding
// RTL simulation: same register semantics, same DMA sequence per tag,
// same results in memory — only the timestamps are computed from the LPN
// rather than from gate-level state. Accelerator models embed Base and
// provide their register frontend, functional model, and LPN.
package dsim

import (
	"fmt"

	"nexsim/internal/accel"
	"nexsim/internal/lpn"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// DMARec is one recorded DMA operation awaiting replay.
type DMARec struct {
	Kind mem.AccessKind
	Addr mem.Addr
	Size int
	Data []byte // write payload (delivered at emission time)
}

// dmaQueue is one tag's FIFO of recorded DMAs. Draining truncates and
// reuses the backing slice in place, so steady-state task churn neither
// deletes and re-creates map entries nor reallocates the queue.
type dmaQueue struct {
	recs []DMARec
	head int
}

// Base is the common machinery of a DSim device. Accelerator models embed
// it and implement RegRead/RegWrite on top (the paper's adapter base
// class with RegRead/RegWrite/ExecuteEvent/DmaComplete callbacks, §A.2).
type Base struct {
	DevName string
	Host    accel.Host
	Net     *lpn.Net

	queues map[string]*dmaQueue
	// freeBufs recycles write-payload buffers: a payload is dead once its
	// DMA is replayed, so WriteDMA reuses it for a later recording.
	freeBufs [][]byte
	now      vclock.Time

	stats     accel.DeviceStats
	busyStart vclock.Time
	inFlight  int
}

// Init prepares the base; call once after the LPN is built.
func (b *Base) Init(name string, host accel.Host, net *lpn.Net) {
	b.DevName = name
	b.Host = host
	b.Net = net
	b.queues = make(map[string]*dmaQueue)
}

// queue returns tag's FIFO, creating it on first use.
func (b *Base) queue(tag string) *dmaQueue {
	q := b.queues[tag]
	if q == nil {
		q = &dmaQueue{}
		b.queues[tag] = q
	}
	return q
}

// payloadBuf returns a recycled buffer of length n, or a fresh one.
func (b *Base) payloadBuf(n int) []byte {
	for i := len(b.freeBufs) - 1; i >= 0; i-- {
		if buf := b.freeBufs[i]; cap(buf) >= n {
			b.freeBufs[i] = b.freeBufs[len(b.freeBufs)-1]
			b.freeBufs = b.freeBufs[:len(b.freeBufs)-1]
			return buf[:n]
		}
	}
	return make([]byte, n)
}

// recycle returns a replayed write payload to the pool.
func (b *Base) recycle(buf []byte) {
	if cap(buf) > 0 && len(b.freeBufs) < 64 {
		b.freeBufs = append(b.freeBufs, buf)
	}
}

// Name implements accel.Device.
func (b *Base) Name() string { return b.DevName }

// Now returns the device's local virtual time.
func (b *Base) Now() vclock.Time { return b.now }

// Advance implements accel.Device: runs the LPN up to t. Host engines may
// call it with stale timestamps (EBS intra-epoch skew); it clamps.
func (b *Base) Advance(t vclock.Time) {
	if t < b.now {
		return
	}
	b.now = t
	fired := b.Net.Advance(t)
	b.stats.HostSteps += int64(fired)
}

// NextEvent implements accel.Device.
func (b *Base) NextEvent() (vclock.Time, bool) {
	return b.Net.NextEvent()
}

// Stats implements accel.Device.
func (b *Base) Stats() accel.DeviceStats { return b.stats }

// TaskStarted performs start-of-task bookkeeping; at is the doorbell
// time.
func (b *Base) TaskStarted(at vclock.Time) {
	b.stats.TasksStarted++
	if b.inFlight == 0 {
		b.busyStart = at
	}
	b.inFlight++
}

// TaskCompleted performs end-of-task bookkeeping; at is the completion
// timestamp from the LPN.
func (b *Base) TaskCompleted(at vclock.Time) {
	b.stats.TasksCompleted++
	b.inFlight--
	if b.inFlight == 0 {
		b.stats.BusyTime += at.Sub(b.busyStart)
	}
}

// Recorder is the functional track's view of host memory: reads happen
// immediately through zero-cost DMA; every operation is recorded into
// the tag's FIFO for timed replay by the LPN.
type Recorder struct{ b *Base }

// Recorder returns the functional-track recorder.
func (b *Base) Recorder() *Recorder { return &Recorder{b} }

// ReadDMA reads size bytes at addr through zero-cost DMA and records the
// read under tag.
func (r *Recorder) ReadDMA(tag string, addr mem.Addr, size int) []byte {
	buf := make([]byte, size)
	r.b.Host.ZeroCostRead(addr, buf)
	q := r.b.queue(tag)
	q.recs = append(q.recs, DMARec{Kind: mem.Read, Addr: addr, Size: size})
	return buf
}

// WriteDMA records a write under tag; the payload reaches host memory
// when the LPN emits the corresponding DMA. The payload buffer comes from
// the recycled-pool and returns there after replay.
func (r *Recorder) WriteDMA(tag string, addr mem.Addr, data []byte) {
	cp := r.b.payloadBuf(len(data))
	copy(cp, data)
	q := r.b.queue(tag)
	q.recs = append(q.recs, DMARec{Kind: mem.Write, Addr: addr, Size: len(data), Data: cp})
}

// Pending reports how many recorded DMAs remain unreplayed for tag.
func (b *Base) Pending(tag string) int {
	q := b.queues[tag]
	if q == nil {
		return 0
	}
	return len(q.recs) - q.head
}

func (b *Base) pop(tag string) DMARec {
	q := b.queues[tag]
	if q == nil || q.head >= len(q.recs) {
		panic(fmt.Sprintf("dsim %s: LPN emitted DMA for tag %q but the functional track recorded none — "+
			"performance and functionality tracks disagree", b.DevName, tag))
	}
	rec := q.recs[q.head]
	q.recs[q.head] = DMARec{} // release the payload reference
	q.head++
	if q.head == len(q.recs) {
		// Queue fully drained; truncate in place so the backing array is
		// reused by the next task instead of re-created map-entry by
		// map-entry.
		q.recs = q.recs[:0]
		q.head = 0
	}
	return rec
}

// EmitDMA returns an LPN effect that replays the next recorded DMA of
// tag when its transition fires. The DMA's timing is simulated by the
// host (interconnect + caches); if resp is non-nil, a token carrying the
// completion timestamp is injected there, so downstream transitions can
// depend on the DMA response (paper §4.3: "The LPN cannot predict the
// timing of later DMAs that depend on responses to earlier ones").
func (b *Base) EmitDMA(tag string, resp *lpn.Place) lpn.EffectFunc {
	return func(f *lpn.Firing, done vclock.Time) {
		rec := b.pop(tag)
		comp := b.Host.DMA(f.Time, rec.Kind, rec.Addr, rec.Size)
		b.stats.DMABytes += int64(rec.Size)
		if rec.Kind == mem.Write && rec.Data != nil {
			b.Host.ZeroCostWrite(rec.Addr, rec.Data)
			b.recycle(rec.Data)
		}
		if resp != nil {
			t := lpn.Tok(comp)
			if len(f.In) > 0 && len(f.In[0]) > 0 {
				t.Attrs = f.In[0][0].Attrs
			}
			b.Net.Inject(resp, t)
		}
	}
}

// EmitDMABatch returns an effect that replays n recorded DMAs per
// firing (for stages that issue bursts).
func (b *Base) EmitDMABatch(tag string, n int, resp *lpn.Place) lpn.EffectFunc {
	return func(f *lpn.Firing, done vclock.Time) {
		var last vclock.Time
		for i := 0; i < n; i++ {
			rec := b.pop(tag)
			comp := b.Host.DMA(f.Time, rec.Kind, rec.Addr, rec.Size)
			b.stats.DMABytes += int64(rec.Size)
			if rec.Kind == mem.Write && rec.Data != nil {
				b.Host.ZeroCostWrite(rec.Addr, rec.Data)
				b.recycle(rec.Data)
			}
			if comp > last {
				last = comp
			}
		}
		if resp != nil {
			b.Net.Inject(resp, lpn.Tok(last))
		}
	}
}
