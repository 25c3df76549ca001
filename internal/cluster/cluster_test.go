package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/simserve"
	"nexsim/internal/vclock"
)

// postJobs submits specs to addr's job API and returns the HTTP status
// and body.
func postJobs(t *testing.T, addr string, specs []experiments.Spec, wait bool) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(simserve.SubmitRequest{Specs: specs, Wait: wait})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// decodeResults decodes a 200 envelope into per-spec result bytes.
func decodeResults(t *testing.T, data []byte) []json.RawMessage {
	t.Helper()
	var env simserve.ResultsResponse
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding results: %v (%s)", err, data)
	}
	return env.Results
}

// scrapeCounter sums one plain (unlabeled) counter across the given
// /metrics endpoints.
func scrapeCounter(t *testing.T, name string, addrs ...string) int64 {
	t.Helper()
	var total int64
	for _, addr := range addrs {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("scraping %s: %v", addr, err)
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && fields[0] == name {
				v, err := strconv.ParseInt(fields[1], 10, 64)
				if err != nil {
					t.Fatalf("bad counter line %q: %v", line, err)
				}
				total += v
			}
		}
	}
	return total
}

func shardAddrs(lc *LocalCluster) []string {
	addrs := make([]string, len(lc.Shards))
	for i, sh := range lc.Shards {
		addrs[i] = sh.Addr
	}
	return addrs
}

// The core cluster invariant end to end: a sweep routed across three
// shards returns byte-identical results to a single direct simd, and a
// repeat of the sweep is served from the shard caches without re-running
// any engine.
func TestRoutedSweepMatchesDirectAndHitsCache(t *testing.T) {
	specs := make([]experiments.Spec, 4)
	for i := range specs {
		specs[i] = experiments.Spec{Bench: "npb-ep.8", Seed: uint64(i + 1)}
	}

	direct := &LocalShard{Server: simserve.New(simserve.Config{})}
	if err := direct.serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { direct.Stop(); direct.Server.Close() }()
	code, body := postJobs(t, direct.Addr, specs, true)
	if code != http.StatusOK {
		t.Fatalf("direct sweep: HTTP %d: %s", code, body)
	}
	want := decodeResults(t, body)

	lc, err := NewLocal(3, simserve.Config{}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	code, body = postJobs(t, lc.RouterAddr, specs, true)
	if code != http.StatusOK {
		t.Fatalf("routed sweep: HTTP %d: %s", code, body)
	}
	got := decodeResults(t, body)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("spec %d: routed result differs from direct\n direct: %s\n routed: %s", i, want[i], got[i])
		}
	}

	// Second pass: all cache hits, no new engine work anywhere.
	submittedBefore := scrapeCounter(t, "simserve_jobs_submitted", shardAddrs(lc)...)
	hitsBefore := scrapeCounter(t, "simserve_cache_hits", shardAddrs(lc)...)
	code, body = postJobs(t, lc.RouterAddr, specs, true)
	if code != http.StatusOK {
		t.Fatalf("routed repeat: HTTP %d: %s", code, body)
	}
	again := decodeResults(t, body)
	for i := range want {
		if !bytes.Equal(want[i], again[i]) {
			t.Fatalf("spec %d: cached routed result differs from direct", i)
		}
	}
	if after := scrapeCounter(t, "simserve_jobs_submitted", shardAddrs(lc)...); after != submittedBefore {
		t.Fatalf("repeat sweep ran %d fresh jobs, want 0", after-submittedBefore)
	}
	if after := scrapeCounter(t, "simserve_cache_hits", shardAddrs(lc)...); after != hitsBefore+int64(len(specs)) {
		t.Fatalf("repeat sweep hit cache %d times, want %d", after-hitsBefore, len(specs))
	}
}

// Membership churn mid-batch: the home shard of an in-flight spec is
// killed abruptly; the hedge/failover path completes the batch from a
// replica with the correct bytes, the router marks the dead shard down,
// and a restarted shard re-admits through probation.
func TestClusterChurnHedgeCompletesAndReadmits(t *testing.T) {
	slowRunner := func(s experiments.Spec, attempt int) (core.Result, error) {
		time.Sleep(150 * time.Millisecond)
		return core.Result{SimTime: vclock.Duration(s.Seed) * vclock.Microsecond}, nil
	}
	lc, err := NewLocal(3, simserve.Config{Runner: slowRunner}, RouterConfig{
		HedgeAfter:    40 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		FailThreshold: 2,
		ReadmitOKs:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	spec := experiments.Spec{Bench: "npb-ep.8", Seed: 7}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	home := NewRing(shardAddrs(lc), 0).Order(id)[0]
	var homeShard *LocalShard
	for _, sh := range lc.Shards {
		if sh.Addr == home {
			homeShard = sh
		}
	}
	if homeShard == nil {
		t.Fatalf("home shard %s not in cluster", home)
	}

	type reply struct {
		code int
		body []byte
	}
	done := make(chan reply, 1)
	go func() {
		code, body := postJobs(t, lc.RouterAddr, []experiments.Spec{spec}, true)
		done <- reply{code, body}
	}()

	// Kill the home shard while its run is still in flight.
	time.Sleep(60 * time.Millisecond)
	homeShard.Stop()

	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("batch did not complete after shard death: HTTP %d: %s", r.code, r.body)
	}
	results := decodeResults(t, r.body)
	var jr simserve.JobResult
	if err := json.Unmarshal(results[0], &jr); err != nil {
		t.Fatal(err)
	}
	if jr.ID != id || jr.Error != "" {
		t.Fatalf("hedged result wrong: id=%s error=%q", jr.ID, jr.Error)
	}
	if want := int64(7 * vclock.Microsecond); jr.SimTimePS != want {
		t.Fatalf("hedged result sim time = %d, want %d", jr.SimTimePS, want)
	}

	// The dead shard is marked down (by traffic and/or probes)...
	deadline := time.Now().Add(3 * time.Second)
	for {
		if !lc.Router.Membership().Live(home) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead shard %s never marked down (state %s)", home, lc.Router.Membership().State(home))
		}
		time.Sleep(10 * time.Millisecond)
	}
	marksDown, _, _ := lc.Router.Membership().counters()
	if marksDown < 1 {
		t.Fatalf("marksDown = %d, want >= 1", marksDown)
	}

	// ...the determinism probe saw no divergence...
	lc.Router.mu.Lock()
	mismatches := lc.Router.m.probeMismatches
	lc.Router.mu.Unlock()
	if mismatches != 0 {
		t.Fatalf("probeMismatches = %d, want 0", mismatches)
	}

	// ...and a restarted shard re-admits through probation.
	if err := homeShard.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for {
		if lc.Router.Membership().Live(home) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted shard %s never re-admitted (state %s)", home, lc.Router.Membership().State(home))
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, readmits, _ := lc.Router.Membership().counters()
	if readmits < 1 {
		t.Fatalf("readmits = %d, want >= 1", readmits)
	}
}

// The router's determinism probe catches a divergent replica: a runner
// whose first call straggles and then answers differently from every
// later call makes the hedge win with one answer and the primary lose
// with another. The client gets the hedge's bytes, the byte compare
// counts one mismatch, and the primary's shard — the one holding the
// straggler's bytes — is quarantined while the hedge's stays up.
func TestProbeMismatchQuarantinesShard(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	runner := func(s experiments.Spec, attempt int) (core.Result, error) {
		if calls.Add(1) == 1 {
			<-gate
			return core.Result{SimTime: 111 * vclock.Microsecond}, nil
		}
		return core.Result{SimTime: 222 * vclock.Microsecond}, nil
	}
	lc, err := NewLocal(2, simserve.Config{Runner: runner}, RouterConfig{
		HedgeAfter:    20 * time.Millisecond,
		ProbeInterval: time.Hour, // no probes: nothing re-admits the shard
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	defer close(gate)

	spec := experiments.Spec{Bench: "npb-ep.8", Seed: 3}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}

	code, body := postJobs(t, lc.RouterAddr, []experiments.Spec{spec}, true)
	if code != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	var jr simserve.JobResult
	if err := json.Unmarshal(decodeResults(t, body)[0], &jr); err != nil {
		t.Fatal(err)
	}
	if jr.SimTimePS != int64(222*vclock.Microsecond) {
		t.Fatalf("client got sim time %d, want the hedge's %d", jr.SimTimePS, int64(222*vclock.Microsecond))
	}

	gate <- struct{}{} // release the straggling primary with its divergent answer
	deadline := time.Now().Add(5 * time.Second)
	for scrapeCounter(t, "simrouter_probe_mismatches", lc.RouterAddr) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("probe mismatch never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := scrapeCounter(t, "simrouter_quarantines", lc.RouterAddr); n != 1 {
		t.Fatalf("simrouter_quarantines = %d, want 1", n)
	}
	// Each shard cached the answer it computed; the straggler's is 111µs.
	for _, sh := range lc.Shards {
		resp, err := http.Get("http://" + sh.Addr + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var poll struct {
			Result simserve.JobResult `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&poll)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		state := lc.Router.Membership().State(sh.Addr)
		straggler := poll.Result.SimTimePS == int64(111*vclock.Microsecond)
		if quarantined := state == StateDown+" (quarantined)"; quarantined != straggler {
			t.Errorf("shard %s (sim time %d) state = %q, want quarantined = %t",
				sh.Addr, poll.Result.SimTimePS, state, straggler)
		}
	}
}

// A router over a fully dead shard set refuses cleanly.
func TestRouterNoLiveShards(t *testing.T) {
	lc, err := NewLocal(1, simserve.Config{}, RouterConfig{
		ProbeInterval: time.Hour, // no background probes; driven by traffic
		FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	lc.Shards[0].Stop()

	spec := []experiments.Spec{{Bench: "npb-ep.8", Seed: 31}}
	// First submit discovers the dead shard (transport error -> mark
	// down at threshold 1); it may fail with 502 or 503 depending on
	// when the mark lands. The second must be a clean 503.
	postJobs(t, lc.RouterAddr, spec, false)
	code, body := postJobs(t, lc.RouterAddr, spec, false)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead cluster: HTTP %d: %s", code, body)
	}
	if !strings.Contains(string(body), "no live shards") {
		t.Fatalf("dead cluster error = %s, want no-live-shards", body)
	}
}

// An over-limit spec is refused at the router with a 400 and never
// forwarded: no shard counts a submission or a cache lookup for it, so
// no shard journal can ever hold it.
func TestRouterRejectsOversizedSpec(t *testing.T) {
	lc, err := NewLocal(2, simserve.Config{}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	code, data := postJobs(t, lc.RouterAddr, []experiments.Spec{{Bench: "vta-matmul", Devices: 2000}}, true)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized spec: HTTP %d: %s", code, data)
	}
	var e struct{ Error string }
	if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "devices 2000") {
		t.Fatalf("oversized spec error body = %s (%v), want a JSON error naming devices", data, err)
	}
	if n := scrapeCounter(t, "simrouter_bad_requests", lc.RouterAddr); n != 1 {
		t.Errorf("simrouter_bad_requests = %d, want 1", n)
	}
	for _, name := range []string{"simserve_jobs_submitted", "simserve_cache_hits", "simserve_cache_misses"} {
		if n := scrapeCounter(t, name, shardAddrs(lc)...); n != 0 {
			t.Errorf("%s = %d across shards, want 0 (spec was forwarded)", name, n)
		}
	}
}

// The router's metrics page renders the core counters (smoke, and a
// regression guard for the per-shard render).
func TestRouterMetricsRender(t *testing.T) {
	lc, err := NewLocal(2, simserve.Config{}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	postJobs(t, lc.RouterAddr, []experiments.Spec{{Bench: "npb-ep.8", Seed: 41}}, true)

	resp, err := http.Get("http://" + lc.RouterAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"simrouter_requests_total 1",
		"simrouter_specs_total 1",
		"simrouter_probe_mismatches 0",
		fmt.Sprintf("simrouter_shard_up{shard=%q} 1", lc.Shards[0].Addr),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}
