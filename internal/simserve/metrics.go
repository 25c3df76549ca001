package simserve

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"nexsim/internal/checkpoint"
	"nexsim/internal/faults"
	"nexsim/internal/stats"
)

// metrics is the daemon's operational counter set, rendered as plain
// text on /metrics (one `name value` or `name{label="..."} value` line
// per metric, in stable order). All fields are guarded by the server's
// lock; gauges (queue depth, busy workers) are sampled at render time.
type metrics struct {
	jobsSubmitted int64 // specs accepted onto the queue (fresh runs)
	jobsCompleted int64
	jobsFailed    int64
	jobsCanceled  int64 // queued jobs skipped at pickup (all waiters gone)
	jobsDeduped   int64 // submits coalesced onto an in-flight identical run
	cacheHits     int64 // submits served from the result cache
	cacheMisses   int64

	workersBusy int64 // currently executing jobs (gauge)

	// Self-healing counters.
	retriesTotal      int64 // transient failures re-attempted
	transientFailures int64 // jobs answered with a transient failure (retries exhausted)
	budgetAborts      int64 // attempts aborted by core.ErrBudgetExceeded

	// Crash-safety counters (StateDir servers).
	walRecoveredResults int64 // done records replayed into the cache at Open
	walRecoveredPending int64 // interrupted jobs resubmitted at Open
	walPendingDropped   int64 // interrupted jobs that no longer fit the queue
	walAppendErrors     int64 // journal writes that failed (results stay in memory)

	// Per-benchmark wall-time histograms (milliseconds) for completed
	// fresh runs; cache hits cost no engine time and are not recorded.
	benchWall map[string]*stats.Histogram
	benchRuns map[string]int64
}

// wallBoundsMS are the histogram buckets: 0.25ms to ~8s, doubling.
var wallBoundsMS = stats.GeometricBounds(0.25, 2, 16)

func newMetrics() *metrics {
	return &metrics{
		benchWall: map[string]*stats.Histogram{},
		benchRuns: map[string]int64{},
	}
}

// observeRun records one completed fresh run of bench taking wallMS.
func (m *metrics) observeRun(bench string, wallMS float64) {
	h := m.benchWall[bench]
	if h == nil {
		h = stats.NewHistogram(wallBoundsMS...)
		m.benchWall[bench] = h
	}
	h.Observe(wallMS)
	m.benchRuns[bench]++
}

// render writes the metrics page. queueDepth/queueCap/workers are
// sampled by the caller from the pool, cacheEntries/cacheEvictions from
// the result cache, and ck from the prefix-checkpoint store.
func (m *metrics) render(w io.Writer, shardID string, queueDepth, queueCap, workers int, cacheEntries int, cacheEvictions int64, ck checkpoint.StoreStats) {
	if shardID != "" {
		fmt.Fprintf(w, "simserve_shard{id=%q} 1\n", shardID)
	}
	fmt.Fprintf(w, "simserve_jobs_submitted %d\n", m.jobsSubmitted)
	fmt.Fprintf(w, "simserve_jobs_completed %d\n", m.jobsCompleted)
	fmt.Fprintf(w, "simserve_jobs_failed %d\n", m.jobsFailed)
	fmt.Fprintf(w, "simserve_jobs_canceled %d\n", m.jobsCanceled)
	fmt.Fprintf(w, "simserve_jobs_deduped %d\n", m.jobsDeduped)
	fmt.Fprintf(w, "simserve_cache_hits %d\n", m.cacheHits)
	fmt.Fprintf(w, "simserve_cache_misses %d\n", m.cacheMisses)
	fmt.Fprintf(w, "simserve_cache_entries %d\n", cacheEntries)
	fmt.Fprintf(w, "simserve_cache_evictions %d\n", cacheEvictions)
	fmt.Fprintf(w, "simserve_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "simserve_queue_capacity %d\n", queueCap)
	fmt.Fprintf(w, "simserve_workers %d\n", workers)
	fmt.Fprintf(w, "simserve_workers_busy %d\n", m.workersBusy)
	fmt.Fprintf(w, "simserve_checkpoint_entries %d\n", ck.Entries)
	fmt.Fprintf(w, "simserve_checkpoint_bytes %d\n", ck.UsedBytes)
	fmt.Fprintf(w, "simserve_checkpoint_hits %d\n", ck.Hits)
	fmt.Fprintf(w, "simserve_checkpoint_misses %d\n", ck.Misses)
	fmt.Fprintf(w, "simserve_checkpoint_evictions %d\n", ck.Evictions)
	fmt.Fprintf(w, "simserve_retries_total %d\n", m.retriesTotal)
	fmt.Fprintf(w, "simserve_transient_failures %d\n", m.transientFailures)
	fmt.Fprintf(w, "simserve_budget_aborts %d\n", m.budgetAborts)
	fmt.Fprintf(w, "simserve_wal_recovered_results %d\n", m.walRecoveredResults)
	fmt.Fprintf(w, "simserve_wal_recovered_pending %d\n", m.walRecoveredPending)
	fmt.Fprintf(w, "simserve_wal_pending_dropped %d\n", m.walPendingDropped)
	fmt.Fprintf(w, "simserve_wal_append_errors %d\n", m.walAppendErrors)
	fmt.Fprintf(w, "simserve_faults_fired_total %d\n", faults.FiredTotal())
	sites, counts := faults.FiredBySite()
	for i, site := range sites {
		fmt.Fprintf(w, "simserve_faults_fired{site=%q} %d\n", site, counts[i])
	}

	benches := make([]string, 0, len(m.benchWall))
	for b := range m.benchWall {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	for _, b := range benches {
		fmt.Fprintf(w, "simserve_bench_runs{bench=%q} %d\n", b, m.benchRuns[b])
		h := m.benchWall[b]
		cum := h.Cumulative()
		for i, bound := range h.Bounds() {
			fmt.Fprintf(w, "simserve_bench_wall_ms_bucket{bench=%q,le=%q} %d\n",
				b, strconv.FormatFloat(bound, 'g', -1, 64), cum[i])
		}
		fmt.Fprintf(w, "simserve_bench_wall_ms_bucket{bench=%q,le=\"+Inf\"} %d\n", b, cum[len(cum)-1])
		fmt.Fprintf(w, "simserve_bench_wall_ms_sum{bench=%q} %s\n",
			b, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
		fmt.Fprintf(w, "simserve_bench_wall_ms_count{bench=%q} %d\n", b, h.N())
	}
}
