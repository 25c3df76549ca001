package simserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/vclock"
)

// cheapSpec is a fast real-engine run (one NPB kernel under NEX).
var cheapSpec = experiments.Spec{Bench: "npb-ep.8", EpochNS: 1000}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// metricValue extracts one counter from a /metrics page.
func metricValue(t *testing.T, page []byte, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(string(page), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, page)
	return 0
}

// TestEndToEnd drives the real engine over HTTP: submit a batch
// asynchronously, poll each job to completion, then fetch results and
// check them against a direct RunSpec call.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Backlog: 16})

	specs := []experiments.Spec{
		cheapSpec,
		{Bench: "npb-ep.8", Host: "reference"},
	}
	body, err := json.Marshal(struct {
		Specs []experiments.Spec `json:"specs"`
	}{specs})
	if err != nil {
		t.Fatal(err)
	}
	code, resp := post(t, ts, string(body))
	if code != http.StatusAccepted {
		t.Fatalf("async submit: status %d, body %s", code, resp)
	}
	var env struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(resp, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(env.Jobs))
	}

	// Submission order must be preserved: job i is spec i.
	for i, spec := range specs {
		wantID, err := spec.ID()
		if err != nil {
			t.Fatal(err)
		}
		if env.Jobs[i].ID != wantID {
			t.Fatalf("job %d id %s, want content address %s", i, env.Jobs[i].ID, wantID)
		}
	}

	// Poll to completion.
	results := make([]JobResult, 2)
	for i, js := range env.Jobs {
		var last []byte
		deadline := time.Now().Add(30 * time.Second)
		for {
			code, out := get(t, ts, "/jobs/"+js.ID)
			if code != http.StatusOK {
				t.Fatalf("poll %s: status %d, body %s", js.ID, code, out)
			}
			var poll struct {
				Status string          `json:"status"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(out, &poll); err != nil {
				t.Fatal(err)
			}
			if poll.Status == StatusDone {
				last = poll.Result
				break
			}
			if poll.Status == StatusFailed {
				t.Fatalf("job %s failed: %s", js.ID, poll.Result)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s after 30s", js.ID, poll.Status)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := json.Unmarshal(last, &results[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Results must match a direct engine run (determinism over HTTP).
	for i, spec := range specs {
		want, err := experiments.RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := vclock.Duration(results[i].SimTimePS); got != want.SimTime {
			t.Errorf("spec %d: served sim time %v, direct run %v", i, got, want.SimTime)
		}
	}

	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz status %d", code)
	}
	if code, _ := get(t, ts, "/jobs/no-such-id"); code != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", code)
	}
}

// TestCacheHitByteIdentity pins the acceptance property: a resubmitted
// identical spec is served from cache, the response body is
// byte-identical to the first (fresh) response, and /metrics records
// the hit.
func TestCacheHitByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Backlog: 16})

	body := `{"specs":[{"bench":"npb-ep.8","epoch_ns":1000}],"wait":true}`
	code1, first := post(t, ts, body)
	if code1 != http.StatusOK {
		t.Fatalf("first submit: status %d, body %s", code1, first)
	}
	code2, second := post(t, ts, body)
	if code2 != http.StatusOK {
		t.Fatalf("resubmit: status %d, body %s", code2, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached response differs from fresh run:\n%s\n%s", first, second)
	}

	// An explicitly-spelled default is the same content address, so it
	// also hits.
	spelled := `{"specs":[{"bench":"npb-ep.8","epoch_ns":1000,"host":"nex","seed":42}],"wait":true}`
	code3, third := post(t, ts, spelled)
	if code3 != http.StatusOK {
		t.Fatalf("spelled resubmit: status %d", code3)
	}
	if !bytes.Equal(first, third) {
		t.Fatal("explicit-default spelling missed the cache")
	}

	_, page := get(t, ts, "/metrics")
	if hits := metricValue(t, page, "simserve_cache_hits"); hits != 2 {
		t.Errorf("cache_hits = %d, want 2", hits)
	}
	if misses := metricValue(t, page, "simserve_cache_misses"); misses != 1 {
		t.Errorf("cache_misses = %d, want 1", misses)
	}
	if n := metricValue(t, page, "simserve_jobs_completed"); n != 1 {
		t.Errorf("jobs_completed = %d, want 1 (engine must run once)", n)
	}
	if !strings.Contains(string(page), `simserve_bench_wall_ms_count{bench="npb-ep.8"} 1`) {
		t.Errorf("per-bench wall histogram missing:\n%s", page)
	}
}

// TestSingleflightDedup submits the same spec concurrently and checks
// the engine ran once: later submits attach to the in-flight job.
func TestSingleflightDedup(t *testing.T) {
	var (
		runs    int
		runsMu  sync.Mutex
		release = make(chan struct{})
	)
	srv, ts := newTestServer(t, Config{
		Workers: 4, Backlog: 16,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			runsMu.Lock()
			runs++
			runsMu.Unlock()
			<-release
			return core.Result{SimTime: 123 * vclock.Microsecond}, nil
		},
	})

	const clients = 8
	body := `{"specs":[{"bench":"npb-ep.8"}],"wait":true}`
	var wg sync.WaitGroup
	responses := make([][]byte, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				return
			}
			codes[i], responses[i] = resp.StatusCode, buf.Bytes()
		}(i)
	}

	// Wait until the one fresh run is in flight, then let it finish.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runsMu.Lock()
		n := runs
		runsMu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no run started")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	runsMu.Lock()
	defer runsMu.Unlock()
	if runs != 1 {
		t.Fatalf("engine ran %d times for %d identical submits, want 1", runs, clients)
	}
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, codes[i], responses[i])
		}
		if !bytes.Equal(responses[i], responses[0]) {
			t.Fatalf("client %d saw a different body", i)
		}
	}
	// 1 fresh submit + (clients-1) split between dedup (in-flight) and
	// cache hits (after completion).
	srv.mu.Lock()
	deduped, hits := srv.m.jobsDeduped, srv.m.cacheHits
	srv.mu.Unlock()
	if deduped+hits != clients-1 {
		t.Errorf("deduped(%d) + cache hits(%d) = %d, want %d", deduped, hits, deduped+hits, clients-1)
	}
}

// TestQueueFull429 fills the worker and the queue with blocked jobs and
// checks the next distinct submit is refused with 429.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 1, Backlog: 1,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			<-release
			return core.Result{}, nil
		},
	})
	defer close(release)

	// Distinct specs (distinct seeds) so nothing dedups. The first
	// submit occupies the worker (wait for it to start), the second
	// fills the queue slot; the spare covers the race where the second
	// is dequeued before the third arrives.
	submit := func(seed int) (int, []byte) {
		return post(t, ts, fmt.Sprintf(`{"specs":[{"bench":"npb-ep.8","seed":%d}]}`, seed))
	}
	if code, body := submit(1); code != http.StatusAccepted {
		t.Fatalf("submit 1: status %d, body %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, page := get(t, ts, "/metrics")
		if metricValue(t, page, "simserve_workers_busy") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code, body := submit(2); code != http.StatusAccepted {
		t.Fatalf("submit 2: status %d, body %s", code, body)
	}
	code, body := submit(3)
	if code == http.StatusAccepted {
		// The queue had drained job 2 into... impossible: the only
		// worker is blocked in job 1. Accept only 429 here.
		t.Fatalf("submit 3 accepted with a full queue (body %s)", body)
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit 3: status %d, want 429 (body %s)", code, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body not a JSON error: %s", body)
	}
}

// TestGracefulDrain checks Close completes queued work: results of
// in-flight jobs land in the cache, and new submits are refused while
// draining.
func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := New(Config{
		Workers: 1, Backlog: 4,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			close(started)
			<-release
			return core.Result{SimTime: 7 * vclock.Microsecond}, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := experiments.Spec{Bench: "npb-ep.8", Seed: 99}
	j, err := srv.submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()

	// Close must be draining, not done, while the job is blocked.
	select {
	case <-closed:
		t.Fatal("Close returned with a job still in flight")
	case <-time.After(20 * time.Millisecond):
	}

	// Draining refuses fresh work...
	if _, err := srv.submit(experiments.Spec{Bench: "npb-ep.8", Seed: 100}, false); err == nil {
		t.Fatal("submit accepted while draining")
	}

	close(release)
	<-closed
	<-j.done

	// ...but the drained job's result is served from cache afterwards.
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	status, result, ok := srv.lookup(id)
	if !ok || status != StatusDone {
		t.Fatalf("drained job not in cache: ok=%v status=%q", ok, status)
	}
	var jr JobResult
	if err := json.Unmarshal(result, &jr); err != nil {
		t.Fatal(err)
	}
	if vclock.Duration(jr.SimTimePS) != 7*vclock.Microsecond {
		t.Fatalf("drained result sim time %d", jr.SimTimePS)
	}
}

// TestFailedJobCachedDeterministically checks a panicking run fails its
// job (daemon survives) and the failure is cached like any result.
func TestFailedJobCachedDeterministically(t *testing.T) {
	runs := 0
	var mu sync.Mutex
	_, ts := newTestServer(t, Config{
		Workers: 1, Backlog: 4,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			panic("synthetic engine failure")
		},
	})
	body := `{"specs":[{"bench":"npb-ep.8"}],"wait":true}`
	code, first := post(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if !strings.Contains(string(first), "synthetic engine failure") {
		t.Fatalf("failure not reported: %s", first)
	}
	_, second := post(t, ts, body)
	if !bytes.Equal(first, second) {
		t.Fatal("cached failure differs from fresh failure")
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 {
		t.Fatalf("failed spec ran %d times, want 1 (failures are deterministic too)", runs)
	}
	_, page := get(t, ts, "/metrics")
	if n := metricValue(t, page, "simserve_jobs_failed"); n != 1 {
		t.Errorf("jobs_failed = %d, want 1", n)
	}
}

// TestLRUCacheEviction pins the cache bound.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.put(&cacheEntry{id: "a", result: []byte("1")})
	c.put(&cacheEntry{id: "b", result: []byte("2")})
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put(&cacheEntry{id: "c", result: []byte("3")})
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
	if c.len() != 2 || c.evictions != 1 {
		t.Fatalf("len=%d evictions=%d, want 2/1", c.len(), c.evictions)
	}
}

// TestBadRequests pins the 400 surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Backlog: 4})
	cases := []string{
		``,
		`{"specs":[]}`,
		`{"specs":[{"bench":"no-such-bench"}]}`,
		`{"specs":[{"bench":"npb-ep.8","host":"qemu"}]}`,
		`{"specs":[{"bench":"npb-ep.8","bogus_field":1}]}`,
	}
	for _, body := range cases {
		if code, resp := post(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d (want 400), resp %s", body, code, resp)
		}
	}
}
