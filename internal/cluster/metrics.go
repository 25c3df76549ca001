package cluster

import (
	"fmt"
	"io"
)

// routerMetrics is the router's operational counter set, rendered as
// plain text on /metrics in the same `name value` / `name{label} value`
// format the shards use. All fields are guarded by the router lock;
// per-shard maps render in sorted shard order.
type routerMetrics struct {
	requestsTotal int64 // POST /jobs requests handled
	specsTotal    int64 // specs routed (batch members counted singly)
	badRequests   int64 // malformed bodies / invalid specs
	noShards      int64 // requests refused because no shard was live
	shedded       int64 // requests refused 429 (shard backpressure exhausted)

	forwards      map[string]int64 // sub-batches sent, by shard
	forwardErrors map[string]int64 // transport/5xx failures, by shard
	failovers     int64            // groups re-routed after a dead/refusing shard

	hedgesLaunched  int64 // speculative duplicate sub-batches started
	hedgesWon       int64 // hedges whose answer was served
	hedgesWasted    int64 // duplicate answers that lost the race
	probeCompares   int64 // duplicate answers byte-compared
	probeMismatches int64 // determinism violations across shards
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{
		forwards:      map[string]int64{},
		forwardErrors: map[string]int64{},
	}
}

// renderMetrics writes the router /metrics page: counters, membership
// states and in-flight gauges.
func (r *Router) renderMetrics(w io.Writer) {
	marksDown, readmits, quarantines := r.mem.counters()

	r.mu.Lock()
	m := r.m
	fmt.Fprintf(w, "simrouter_requests_total %d\n", m.requestsTotal)
	fmt.Fprintf(w, "simrouter_specs_total %d\n", m.specsTotal)
	fmt.Fprintf(w, "simrouter_bad_requests %d\n", m.badRequests)
	fmt.Fprintf(w, "simrouter_no_live_shards %d\n", m.noShards)
	fmt.Fprintf(w, "simrouter_shed_429 %d\n", m.shedded)
	fmt.Fprintf(w, "simrouter_failovers %d\n", m.failovers)
	fmt.Fprintf(w, "simrouter_hedges_launched %d\n", m.hedgesLaunched)
	fmt.Fprintf(w, "simrouter_hedges_won %d\n", m.hedgesWon)
	fmt.Fprintf(w, "simrouter_hedges_wasted %d\n", m.hedgesWasted)
	fmt.Fprintf(w, "simrouter_probe_compares %d\n", m.probeCompares)
	fmt.Fprintf(w, "simrouter_probe_mismatches %d\n", m.probeMismatches)
	forwards := make(map[string]int64, len(m.forwards))
	for k, v := range m.forwards {
		forwards[k] = v
	}
	forwardErrors := make(map[string]int64, len(m.forwardErrors))
	for k, v := range m.forwardErrors {
		forwardErrors[k] = v
	}
	inflight := make(map[string]int, len(r.inflight))
	for k, v := range r.inflight {
		inflight[k] = v
	}
	r.mu.Unlock()

	fmt.Fprintf(w, "simrouter_marks_down %d\n", marksDown)
	fmt.Fprintf(w, "simrouter_readmits %d\n", readmits)
	fmt.Fprintf(w, "simrouter_quarantines %d\n", quarantines)

	for _, shard := range r.ring.Shards() {
		up := 0
		if r.mem.Live(shard) {
			up = 1
		}
		fmt.Fprintf(w, "simrouter_shard_up{shard=%q} %d\n", shard, up)
		fmt.Fprintf(w, "simrouter_shard_state{shard=%q,state=%q} 1\n", shard, r.mem.State(shard))
		fmt.Fprintf(w, "simrouter_shard_forwards{shard=%q} %d\n", shard, forwards[shard])
		fmt.Fprintf(w, "simrouter_shard_forward_errors{shard=%q} %d\n", shard, forwardErrors[shard])
		fmt.Fprintf(w, "simrouter_shard_inflight{shard=%q} %d\n", shard, inflight[shard])
	}
}
