// Package simserve exposes the deterministic simulation engines as a
// long-running service: a bounded job queue and worker pool over
// internal/sweep, content-addressed result caching, singleflight
// deduplication of identical in-flight runs, and an operational HTTP
// surface (/jobs, /healthz, /metrics) served by cmd/simd.
//
// The paper's interactive workloads (§6.4 design sweeps, what-if
// epoch/latency exploration) are repeated queries over a small space of
// run configurations. A one-shot CLI redoes the full simulation for
// every question; a service answers a repeated question from cache.
// What makes that sound is determinism, which this repository enforces
// statically (simlint) and at runtime (byte-identical table tests): a
// run is a pure function of its experiments.Spec, so the spec's
// canonical-encoding SHA-256 is a true content address for its result
// and a cached result is byte-identical to a fresh run.
//
// Request flow: each submitted spec is normalized, addressed, and then
// either served from the LRU result cache (cache hit), attached to an
// identical run already queued or executing (singleflight dedup), or
// enqueued onto the bounded worker pool. A full queue sheds load with
// HTTP 429 instead of buffering without limit. Shutdown drains: queued
// and in-flight runs complete (their results land in the cache) before
// Close returns.
package simserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"nexsim/internal/accel"
	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/faults"
	"nexsim/internal/nex"
	"nexsim/internal/sweep"
	"nexsim/internal/xrand"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the worker-pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// Intra is the intra-run worker count applied to every simulation
	// (core.Config.IntraParallel): the host engine plus up to Intra-1
	// accelerator stepper goroutines per run. Results stay
	// byte-identical (conservative schedule, DESIGN.md §10), so cache
	// entries and content addresses are unaffected. Clamped so
	// Workers×Intra stays within GOMAXPROCS; <= 1 keeps runs serial.
	Intra int
	// Backlog bounds the job queue; a submit finding it full is refused
	// with 429 (default 64).
	Backlog int
	// CacheEntries bounds the result cache (default 1024).
	CacheEntries int
	// WaitTimeout caps how long a wait=true submit blocks before
	// degrading to a 202 + poll response (default 60s).
	WaitTimeout time.Duration
	// Checkpoints enables checkpointed sweep execution: jobs whose
	// normalized prefix matches an earlier run fork from its cached
	// engine snapshot instead of re-simulating the prefix. Results are
	// byte-identical either way; the prefix store's counters surface on
	// /metrics.
	Checkpoints bool
	// MaxRetries caps how many times a transiently-failed run (injected
	// fault, budget abort) is re-attempted before its failure is
	// returned. Default 2; negative disables retries. Deterministic
	// failures are never retried — same spec, same failure.
	MaxRetries int
	// RetryBackoff is the pre-retry pause before attempt 1 (default
	// 25ms), doubling per attempt, capped at 1s, with ±25% jitter drawn
	// deterministically from the spec's content address — the same spec
	// backs off the same way every time.
	RetryBackoff time.Duration
	// RunBudget is the per-attempt wall budget handed to the engine
	// watchdogs (0 = none): an over-budget run aborts with
	// core.ErrBudgetExceeded (transient — retried, never cached) instead
	// of wedging its worker.
	RunBudget time.Duration
	// StateDir enables crash-safe persistence: answered results and
	// pending jobs journal to StateDir/results.wal (replayed on Open so
	// a killed daemon recovers its cache and re-runs in-flight work).
	// Prefix checkpoints stay in memory. Empty means fully in-memory.
	StateDir string
	// ShardID names this daemon within a simrouter cluster. It is
	// operational identity only — never part of a spec or result, which
	// stay location-transparent — and surfaces on /metrics so cluster
	// tooling can tell which shard answered a scrape.
	ShardID string
	// Runner executes one normalized spec as the given attempt number
	// (default: experiments.RunSpecAttempt under RunBudget). Tests
	// inject instrumented runners here.
	Runner func(experiments.Spec, int) (core.Result, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Backlog <= 0 {
		c.Backlog = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 60 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.Runner == nil {
		budget := c.RunBudget
		c.Runner = func(s experiments.Spec, attempt int) (core.Result, error) {
			return experiments.RunSpecAttempt(s, attempt, budget)
		}
	}
	return c
}

// JobResult is the canonical, fully deterministic record of one
// completed run — the bytes the cache stores and every response
// carries. Wall-clock time is deliberately absent (it varies run to
// run and would break cached-vs-fresh byte identity); serving-side
// wall times feed the /metrics histograms instead.
type JobResult struct {
	ID        string              `json:"id"`
	Spec      experiments.Spec    `json:"spec"`
	SimTimePS int64               `json:"sim_time_ps"`
	SimTime   string              `json:"sim_time"`
	NEXStats  nex.Stats           `json:"nex_stats"`
	Devices   []accel.DeviceStats `json:"devices,omitempty"`
	Error     string              `json:"error,omitempty"`
	// ErrorKind classifies a failure: deterministic failures (bad spec,
	// engine panic) are cached forever — same spec, same failure —
	// while transient ones (injected fault, budget abort) were already
	// retried, are never cached, and may succeed on resubmit.
	ErrorKind string `json:"error_kind,omitempty"`
	// Attempt records which run attempt produced this result (0 unless
	// transient failures forced retries).
	Attempt int `json:"attempt,omitempty"`
}

// ErrorKind values.
const (
	ErrorKindDeterministic = "deterministic"
	ErrorKindTransient     = "transient"
)

// transientErr reports whether a run failure is transient: injected
// chaos or a budget abort, where a retry (or a resubmit) can
// legitimately see a different outcome. Everything else is
// deterministic — the same spec will fail the same way forever.
func transientErr(err error) bool {
	return errors.Is(err, faults.ErrInjected) || errors.Is(err, core.ErrBudgetExceeded)
}

// Job states reported on /jobs.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	// StatusCanceled marks a queued job skipped at worker pickup because
	// every client waiting on it had disconnected (nobody left to answer,
	// nothing yet computed worth keeping).
	StatusCanceled = "canceled"
)

// Submission errors the HTTP layer maps to status codes.
var (
	ErrQueueFull    = errors.New("simserve: job queue full")
	ErrShuttingDown = errors.New("simserve: shutting down")
)

// job is one in-flight or just-completed run. done is closed after
// result/failed/status are final; until then those fields are guarded
// by the server lock.
type job struct {
	id     string
	spec   experiments.Spec // normalized
	done   chan struct{}
	status string
	result []byte
	failed bool
	// keep pins the job to completion regardless of waiters: async
	// submits (the client holds the id and will poll) and WAL-recovered
	// work. waiters counts wait=true requests currently blocked on the
	// job; a queued job whose last waiter disconnects before a worker
	// picks it up is skipped, freeing its queue slot for live traffic.
	keep    bool
	waiters int
}

// closedDone is the pre-closed channel completed-on-arrival jobs
// (cache hits) carry.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Server is the simulation-as-a-service engine front end.
type Server struct {
	cfg  Config
	pool *sweep.Pool

	mu     sync.Mutex
	jobs   map[string]*job // in-flight, by content address
	cache  *lruCache
	m      *metrics
	wal    *wal // nil without StateDir
	closed bool
}

// New starts a server (its worker pool runs until Close). It panics on
// a state-directory error; services that want the error use Open.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a server. With StateDir set it first recovers from the
// previous incarnation's journal: answered results re-enter the cache
// (byte-identical — determinism makes the replay sound), and jobs that
// were queued or running when the process died are resubmitted.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Checkpoints {
		// Process-wide, like the executor's parallelism: set before any
		// job runs, never while one is running.
		experiments.SetCheckpoints(true)
	}
	if cfg.Intra > 1 {
		// Process-wide for the same reason; clamped so the pool's workers
		// and each run's stepper lanes share the machine.
		experiments.SetIntra(sweep.ClampIntra(cfg.Workers, cfg.Intra, 0))
	}
	s := &Server{
		cfg:   cfg,
		pool:  sweep.NewPool(cfg.Workers, cfg.Backlog),
		jobs:  map[string]*job{},
		cache: newLRUCache(cfg.CacheEntries),
		m:     newMetrics(),
	}
	if cfg.StateDir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("simserve: state dir: %w", err)
	}
	w, rec, err := openWAL(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	for _, r := range rec.results {
		var jr JobResult
		_ = json.Unmarshal(r.result, &jr) // verified by openWAL
		if jr.ErrorKind == ErrorKindTransient {
			// Answered but not cacheable; keep it out of the cache on
			// replay too.
			continue
		}
		s.cache.put(&cacheEntry{id: r.id, result: r.result, failed: r.failed})
		s.m.walRecoveredResults++
	}
	s.wal = w
	s.mu.Unlock()
	// Resubmit interrupted work through the normal path (which re-journals
	// it into the compacted WAL). The queue is empty at open, so only a
	// pending set larger than the backlog can drop — counted, not silent.
	for _, sp := range rec.pending {
		if _, err := s.submit(sp, false); err != nil {
			s.mu.Lock()
			s.m.walPendingDropped++
			s.mu.Unlock()
			continue
		}
		s.mu.Lock()
		s.m.walRecoveredPending++
		s.mu.Unlock()
	}
	return s, nil
}

// Workers reports the worker-pool size.
func (s *Server) Workers() int { return s.pool.Workers() }

// Close stops accepting new jobs, drains queued and in-flight runs to
// completion, and returns. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.pool.Close()
	s.mu.Lock()
	s.wal.close()
	s.wal = nil
	s.mu.Unlock()
}

// submit routes one spec: cache hit, singleflight attach, or fresh
// enqueue. Any returned job either is done or will close done when it
// is. waiter=true registers the calling request as a live waiter on the
// returned fresh/deduped job — the caller must balance it with
// releaseWaiters — while waiter=false pins the job to completion even
// if every client goes away (async submits, WAL recovery).
func (s *Server) submit(raw experiments.Spec, waiter bool) (*job, error) {
	n, err := raw.Normalized()
	if err != nil {
		return nil, err
	}
	id, err := n.ID()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.cache.get(id); ok {
		s.m.cacheHits++
		st := StatusDone
		if e.failed {
			st = StatusFailed
		}
		return &job{id: id, spec: n, done: closedDone, status: st,
			result: e.result, failed: e.failed}, nil
	}
	if j, ok := s.jobs[id]; ok {
		s.m.jobsDeduped++
		s.attach(j, waiter)
		return j, nil
	}
	s.m.cacheMisses++
	if s.closed {
		return nil, ErrShuttingDown
	}
	j := &job{id: id, spec: n, done: make(chan struct{}), status: StatusQueued}
	s.attach(j, waiter)
	switch err := s.pool.TrySubmit(func() { s.run(j) }); {
	case errors.Is(err, sweep.ErrClosed):
		return nil, ErrShuttingDown
	case err != nil:
		return nil, ErrQueueFull
	}
	s.jobs[id] = j
	s.m.jobsSubmitted++
	if specJSON, err := n.CanonicalJSON(); err == nil {
		if werr := s.wal.appendSubmit(id, specJSON); werr != nil {
			s.m.walAppendErrors++
		}
	}
	return j, nil
}

// attach records one more interested party on a job (caller holds the
// lock).
func (s *Server) attach(j *job, waiter bool) {
	if waiter {
		j.waiters++
	} else {
		j.keep = true
	}
}

// releaseWaiters detaches one waiter from each job (a wait=true request
// returning, however it returns). Jobs whose last waiter left while
// still queued are skipped when a worker picks them up.
func (s *Server) releaseWaiters(jobs []*job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		if j.waiters > 0 {
			j.waiters--
		}
	}
}

// keepJobs pins jobs to completion: the client has been told their ids
// (202 + poll) or that they were accepted, so results must materialize
// even if the connection is gone.
func (s *Server) keepJobs(jobs []*job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		j.keep = true
	}
}

// run executes one fresh job on a pool worker: attempt, retry
// transients with deterministic backoff, and publish the final result.
// Straggler hedging lives one level up, in the cluster router: a
// same-node second attempt would meet the same (seed, attempt) fault
// plan as the first.
//
// A job every waiter abandoned while it sat in the queue is skipped
// here instead of executed: the queue slot was already freed by the
// pickup, and running it would burn a worker to compute an answer
// nobody is waiting for. (Its WAL submit record, if any, is only
// settled at the next compaction — a crash before then re-runs the
// spec, which is merely wasted work, never wrong answers.)
func (s *Server) run(j *job) {
	s.mu.Lock()
	if !j.keep && j.waiters == 0 {
		j.status = StatusCanceled
		delete(s.jobs, j.id)
		s.m.jobsCanceled++
		s.mu.Unlock()
		close(j.done)
		return
	}
	j.status = StatusRunning
	s.m.workersBusy++
	s.mu.Unlock()

	start := time.Now()
	res, err, attempt := s.runWithRetries(j)
	wallMS := float64(time.Since(start)) / float64(time.Millisecond)

	s.mu.Lock()
	s.m.workersBusy--
	s.mu.Unlock()
	data, failed, transient := s.marshalResult(j, res, err, attempt)
	s.publish(j, data, failed, transient, wallMS)
}

// runWithRetries drives the attempt chain: transient failures
// back off (doubling, capped, spec-jittered) and re-run with the next
// attempt number — which matters, because Attempts-windowed injected
// faults expire and budget luck differs, so a retry can genuinely heal.
// Deterministic outcomes return immediately: re-running them buys
// nothing.
func (s *Server) runWithRetries(j *job) (core.Result, error, int) {
	attempt := 0
	for {
		res, err := s.safeRun(j.spec, attempt)
		if err == nil || !transientErr(err) || attempt >= s.cfg.MaxRetries {
			return res, err, attempt
		}
		s.mu.Lock()
		s.m.retriesTotal++
		if errors.Is(err, core.ErrBudgetExceeded) {
			s.m.budgetAborts++
		}
		s.mu.Unlock()
		time.Sleep(retryBackoff(j.id, attempt, s.cfg.RetryBackoff))
		attempt++
	}
}

// retryBackoff is the pause before retrying attempt+1: base doubled per
// attempt, capped at 1s, jittered ±25% by a stream derived from the
// spec's content address — deterministic per (spec, attempt), desynced
// across distinct specs.
func retryBackoff(id string, attempt int, base time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < time.Second; i++ {
		d *= 2
	}
	if d > time.Second {
		d = time.Second
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(id)) // fnv Write cannot fail
	st := xrand.New(h.Sum64()).Derive(fmt.Sprintf("backoff-%d", attempt))
	f := 0.75 + 0.5*st.Float64()
	return time.Duration(float64(d) * f)
}

// marshalResult renders one attempt's outcome into canonical JobResult
// bytes plus its caching classification.
func (s *Server) marshalResult(j *job, res core.Result, err error, attempt int) (data []byte, failed, transient bool) {
	jr := JobResult{ID: j.id, Spec: j.spec}
	if err != nil {
		jr.Error = err.Error()
		jr.ErrorKind = ErrorKindDeterministic
		jr.Attempt = attempt
		if transientErr(err) {
			jr.ErrorKind = ErrorKindTransient
			transient = true
		}
		if errors.Is(err, core.ErrBudgetExceeded) {
			s.mu.Lock()
			s.m.budgetAborts++
			s.mu.Unlock()
		}
	} else {
		jr.SimTimePS = int64(res.SimTime)
		jr.SimTime = res.SimTime.String()
		jr.NEXStats = res.NEXStats
		jr.Devices = res.Devices
	}
	out, merr := json.Marshal(jr)
	if merr != nil {
		jr = JobResult{ID: j.id, Spec: j.spec, Error: merr.Error(), ErrorKind: ErrorKindDeterministic}
		out, _ = json.Marshal(jr)
	}
	return out, jr.Error != "", transient
}

// publish installs a finished job's bytes as its result. Transient
// failures are answered but never cached: the next submit of the same
// spec runs fresh.
func (s *Server) publish(j *job, data []byte, failed, transient bool, wallMS float64) {
	s.mu.Lock()
	j.result = data
	j.failed = failed
	if failed {
		j.status = StatusFailed
		s.m.jobsFailed++
		if transient {
			s.m.transientFailures++
		}
	} else {
		j.status = StatusDone
		s.m.jobsCompleted++
	}
	if !transient {
		s.cache.put(&cacheEntry{id: j.id, result: data, failed: failed})
	}
	if werr := s.wal.appendDone(j.id, failed, data); werr != nil {
		s.m.walAppendErrors++
	}
	delete(s.jobs, j.id)
	s.m.observeRun(j.spec.Bench, wallMS)
	s.mu.Unlock()
	close(j.done)
}

// safeRun shields the worker pool from a panicking engine: a bad spec
// must fail its own job, not the daemon. An injected-fault panic (a
// custom runner surfacing engine chaos directly) keeps its transient
// classification through the recover.
func (s *Server) safeRun(spec experiments.Spec, attempt int) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && faults.IsInjected(e) {
				err = fmt.Errorf("run aborted by %w", e)
				return
			}
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	return s.cfg.Runner(spec, attempt)
}

// lookup finds a job's current status and (when finished) result.
func (s *Server) lookup(id string) (status string, result []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, found := s.jobs[id]; found {
		return j.status, nil, true
	}
	if e, found := s.cache.get(id); found {
		if e.failed {
			return StatusFailed, e.result, true
		}
		return StatusDone, e.result, true
	}
	return "", nil, false
}

// --- HTTP surface ---

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write([]byte("ok\n")); err != nil {
		return
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	depth, capacity, workers := s.pool.Depth(), s.pool.Capacity(), s.pool.Workers()
	ck := experiments.CheckpointStats()
	s.mu.Lock()
	s.m.render(&buf, s.cfg.ShardID, depth, capacity, workers, s.cache.len(), s.cache.evictions, ck)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write(buf.Bytes()); err != nil {
		return
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeSubmit(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	jobs := make([]*job, 0, len(req.Specs))
	if req.Wait {
		// Balance every waiter this request registered, however the
		// request ends (result, timeout, disconnect, mid-batch error).
		defer func() { s.releaseWaiters(jobs) }()
	}
	for i, spec := range req.Specs {
		j, err := s.submit(spec, req.Wait)
		switch {
		case err == nil:
			jobs = append(jobs, j)
		case errors.Is(err, ErrQueueFull):
			// The specs accepted so far were promised to the client
			// ("accepted %d"), so they run to completion even though this
			// response is an error.
			s.keepJobs(jobs)
			id, _ := spec.ID() // submit already addressed it
			w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSecs(id)))
			WriteError(w, http.StatusTooManyRequests,
				fmt.Sprintf("spec %d: job queue full (accepted %d of %d specs; resubmit the rest)",
					i, len(jobs), len(req.Specs)))
			return
		case errors.Is(err, ErrShuttingDown):
			WriteError(w, http.StatusServiceUnavailable, "server is draining")
			return
		default:
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
	}

	if !req.Wait {
		WriteJSON(w, http.StatusAccepted, s.statusEnvelope(jobs))
		return
	}

	deadline := time.Now().Add(s.cfg.WaitTimeout)
	results := make([]json.RawMessage, len(jobs))
	for i, j := range jobs {
		remaining := time.Until(deadline)
		done, gone := waitDone(r.Context(), j, remaining)
		if gone {
			// The client disconnected mid-wait: stop blocking a handler
			// goroutine on an answer nobody will read. The deferred
			// release lets still-queued jobs cancel at pickup.
			return
		}
		if remaining <= 0 || !done {
			// Timed out: hand the client the job IDs to poll. They now
			// must complete even if this client never returns.
			s.keepJobs(jobs)
			WriteJSON(w, http.StatusAccepted, s.statusEnvelope(jobs))
			return
		}
		s.mu.Lock()
		results[i] = j.result
		s.mu.Unlock()
	}
	WriteJSON(w, http.StatusOK, ResultsResponse{results})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, result, ok := s.lookup(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	WriteJSON(w, http.StatusOK, struct {
		ID     string          `json:"id"`
		Status string          `json:"status"`
		Result json.RawMessage `json:"result,omitempty"`
	}{id, status, result})
}

// statusEnvelope snapshots per-job statuses for async responses.
func (s *Server) statusEnvelope(jobs []*job) JobsResponse {
	statuses := make([]JobStatus, len(jobs))
	s.mu.Lock()
	for i, j := range jobs {
		statuses[i] = JobStatus{ID: j.id, Status: j.status}
	}
	s.mu.Unlock()
	return JobsResponse{statuses}
}

// waitDone waits for j to finish, up to d, observing the request
// context: gone=true means the client disconnected first.
func waitDone(ctx context.Context, j *job, d time.Duration) (done, gone bool) {
	if d <= 0 {
		return false, false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.done:
		return true, false
	case <-t.C:
		return false, false
	case <-ctx.Done():
		return false, true
	}
}
