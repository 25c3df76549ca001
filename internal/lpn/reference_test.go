package lpn

import "nexsim/internal/vclock"

// ---- Reference engine --------------------------------------------------
//
// scanAdvance and scanNextEvent are the pre-rework full-rescan engine,
// kept verbatim (including its per-probe allocations) as an executable
// specification. The randomized differential test runs identical nets
// through both engines and requires identical firing sequences, clocks
// and final marking; the micro-benchmarks measure the incremental
// scheduler's speedup against this loop.

// scanReadyTime computes the earliest time tr could fire by examining its
// arcs from scratch.
func (n *Net) scanReadyTime(tr *Transition) (vclock.Time, bool) {
	ready := n.now
	for _, a := range tr.In {
		w := a.weight()
		if a.Place.Len() < w {
			return vclock.Never, false
		}
		for i := 0; i < w; i++ {
			if ts := a.Place.peek(i).TS; ts > ready {
				ready = ts
			}
		}
	}
	for _, o := range tr.Out {
		if o.Place.Cap > 0 && o.Place.Len() >= o.Place.Cap {
			return vclock.Never, false
		}
	}
	if tr.Guard != nil {
		f := &Firing{Time: ready, In: make([][]Token, len(tr.In))}
		for i, a := range tr.In {
			toks := make([]Token, a.weight())
			for j := range toks {
				toks[j] = a.Place.peek(j)
			}
			f.In[i] = toks
		}
		if !tr.Guard(f) {
			return vclock.Never, false
		}
	}
	return ready, true
}

// scanNextEvent is NextEvent via a full transition rescan.
func (n *Net) scanNextEvent() (vclock.Time, bool) {
	best, any := vclock.Never, false
	for _, tr := range n.transitions {
		if at, ok := n.scanReadyTime(tr); ok && at < best {
			best, any = at, true
		}
	}
	return best, any
}

// scanAdvance is Advance via a full rescan per firing.
func (n *Net) scanAdvance(until vclock.Time) int {
	fired := 0
	for {
		var chosen *Transition
		chosenAt := vclock.Never
		for _, tr := range n.transitions {
			if at, ok := n.scanReadyTime(tr); ok && at < chosenAt {
				chosen, chosenAt = tr, at
			}
		}
		if chosen == nil || chosenAt > until {
			break
		}
		n.scanFire(chosen, chosenAt)
		fired++
	}
	if until > n.now {
		n.now = until
	}
	return fired
}

// scanFire fires tr with a freshly allocated Firing, as the engine did
// before the scratch-reuse rework.
func (n *Net) scanFire(tr *Transition, at vclock.Time) {
	if at > n.now {
		n.now = at
	}
	f := &Firing{Time: at, In: make([][]Token, len(tr.In))}
	for i, a := range tr.In {
		w := a.weight()
		toks := make([]Token, w)
		for j := 0; j < w; j++ {
			toks[j] = a.Place.pop()
		}
		f.In[i] = toks
	}
	var d vclock.Duration
	if tr.Delay != nil {
		d = tr.Delay(f)
	}
	done := at.Add(d)
	for _, o := range tr.Out {
		if o.Plain {
			o.Place.Push(Token{TS: done})
			continue
		}
		if o.Fn != nil {
			for _, t := range o.Fn(f, done) {
				o.Place.Push(t)
			}
			continue
		}
		t := Token{TS: done}
		if len(f.In) > 0 && len(f.In[0]) > 0 {
			t.Attrs = f.In[0][0].Attrs
		}
		o.Place.Push(t)
	}
	if tr.Effect != nil {
		tr.Effect(f, done)
	}
	tr.fires++
}
