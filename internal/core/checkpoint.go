package core

import (
	"fmt"
	"time"

	"nexsim/internal/app"
	"nexsim/internal/checkpoint"
)

// Checkpoint/fork support (sweep prefix sharing): a NEX-hosted system
// can run an application prefix up to the first device interaction,
// serialize the NEX engine into a content-addressed blob, and later
// fork any number of continuations from it — each byte-identical to a
// straight-through run. The host side is captured by the NEX journal
// snapshot (thread states regenerate by replay). Devices carry no
// section: the prefix ends strictly before the first interaction with
// any of them, so a freshly built device re-clocked to the halt time by
// nex.Restore is exactly the device the prefix left behind.

// CanCheckpoint reports whether this system supports prefix
// checkpointing: a NEX host without trace recording.
func (s *System) CanCheckpoint() bool {
	return s.nexEng != nil && s.cfg.Trace == nil
}

// RunPrefix runs prog up to (but not including) the first device
// interaction. When the program reaches a device, it returns
// (zero Result, false) with the system halted and checkpointable; when
// the program completes without touching a device, it returns the full
// result and true. Non-checkpointable systems run to completion.
func (s *System) RunPrefix(prog app.Program) (Result, bool) {
	if !s.CanCheckpoint() {
		return s.Run(prog), true
	}
	start := time.Now() //simlint:allow nondet-time Result.WallTime is speed reporting, never simulation state
	r, completed := s.nexEng.RunPrefix(prog)
	if !completed {
		return Result{}, false
	}
	wall := time.Since(start) //simlint:allow nondet-time
	res := Result{SimTime: r.SimTime, WallTime: wall,
		Host: s.cfg.Host, Accel: s.cfg.Accel, NEXStats: r.Stats}
	for _, d := range s.binds {
		// RunPrefix never calls startCrew (only Run and ResumeRun do,
		// and both defer stopCrew), so no lane can be live here. The
		// open window the analysis reports is the flow-insensitive
		// summary of advanceDevices' crew-not-nil branch.
		res.Devices = append(res.Devices, d.Stats()) //simlint:allow lane-safety RunPrefix never starts a crew
	}
	return res, true
}

// Checkpoint serializes the halted system into a blob. Two systems that
// ran the same prefix produce byte-identical blobs.
func (s *System) Checkpoint() ([]byte, error) {
	if s.nexEng == nil {
		return nil, fmt.Errorf("core: checkpointing requires a NEX host")
	}
	if s.cfg.Trace != nil {
		return nil, fmt.Errorf("core: checkpointing is incompatible with trace recording")
	}
	enc := checkpoint.NewEncoder()
	if err := s.nexEng.SnapshotTo(enc); err != nil {
		return nil, err
	}
	return enc.Bytes(), nil
}

// RestoreCheckpoint rebuilds a checkpointed run into this freshly built
// system. prog must be the same program the snapshotted system ran.
func (s *System) RestoreCheckpoint(blob []byte, prog app.Program) error {
	if s.nexEng == nil {
		return fmt.Errorf("core: checkpointing requires a NEX host")
	}
	dec, err := checkpoint.NewDecoder(blob)
	if err != nil {
		return err
	}
	if err := s.nexEng.Restore(dec, prog); err != nil {
		return err
	}
	if !dec.Done() {
		return fmt.Errorf("%w: %d trailing bytes after restore", checkpoint.ErrCorrupt, dec.Remaining())
	}
	return nil
}

// ResumeRun continues a halted (prefix-run or restored) system to
// completion. The result matches what Run would have returned on a
// straight-through execution, except WallTime covers only the resumed
// portion.
func (s *System) ResumeRun() Result {
	start := time.Now() //simlint:allow nondet-time Result.WallTime is speed reporting, never simulation state
	r := s.nexEng.ResumeRun()
	wall := time.Since(start) //simlint:allow nondet-time
	res := Result{SimTime: r.SimTime, WallTime: wall,
		Host: s.cfg.Host, Accel: s.cfg.Accel, NEXStats: r.Stats}
	for _, d := range s.binds {
		res.Devices = append(res.Devices, d.Stats())
	}
	return res
}
