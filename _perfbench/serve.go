package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nexsim/internal/cluster"
	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/simserve"
)

// serve: an open loop of Poisson arrivals, on a schedule drawn from the
// seed, into an in-process cluster.Router (default config, so the
// hot-set exchange runs) over serveShards simserve shards, each with
// one worker and its own state directory, so every fresh answer is
// appended to a WAL. The client holds at most maxConns connections.
// Requests are timed from the moment they were due.

const (
	serveShards = 2
	maxConns    = 2
	hotSetSize  = 48
	zipfS       = 1.2
	// mainRate is the main phase's arrival rate (requests/s).
	mainRate = 50.0
	// sloP90 is the latency limit of the rate ladder: a rung meets it
	// when the p90 of its requests, timed from their due times, is
	// within it, no request failed, and the generator was never more
	// than sloP90 late (no growing backlog).
	sloP90 = 50 * time.Millisecond
	// abandonLag stops sending a rung's requests once the generator
	// runs this late: the rung has failed and the rest would only
	// queue.
	abandonLag = 1 * time.Second
)

// ladderRates are the fixed rates (requests/s) of the rate ladder.
var ladderRates = []float64{500, 600, 720, 860, 1040, 1250, 1500, 1800, 2160, 2600, 3110}

// hotBenches are the NEX+DSim benchmarks of the hot set; fresh specs
// (cold requests and the fresh half of batches) all run coldBench, so
// every cold request costs the same engine work.
var hotBenches = []string{"vta-matmul", "jpeg-decode", "protoacc-bench3", "vta-resnet18", "jpeg-mt.2"}

const coldBench = "vta-matmul"

// Request classes of the traffic mix.
const (
	classHit = iota
	classCold
	classBatch
	numClasses
)

var classNames = [numClasses]string{"hit", "cold", "batch"}

// mixDeck is one stratum of the traffic mix: every run of len(mixDeck)
// arrivals carries exactly these classes (80% hit, 15% cold, 5% batch),
// in a seed-shuffled order. A batch holds batchSize specs, half from
// the hot set and half fresh.
var mixDeck = []int{
	classHit, classHit, classHit, classHit, classHit, classHit, classHit, classHit,
	classHit, classHit, classHit, classHit, classHit, classHit, classHit, classHit,
	classCold, classCold, classCold, classBatch,
}

const batchSize = 8

type serve struct {
	seed    uint64
	shards  []*simserve.Server
	servers []*http.Server
	router  *cluster.Router
	base    string // router URL
	metrics []string
	client  *http.Client
	hot     []experiments.Spec
	hotWant [][]byte
	tr      atomic.Pointer[tracer]
	wg      sync.WaitGroup
}

func setupServe(seed uint64, scratch string) (instance, error) {
	experiments.SetParallelism(1)
	experiments.SetIntra(1)
	experiments.SetCheckpoints(false)
	// One processor: the machine's two vCPUs slow each other down when
	// both are busy, and with both in use serve's figures moved 2x
	// between identical runs (README.md).
	runtime.GOMAXPROCS(1)
	w := &serve{seed: seed}
	var addrs []string
	for i := 0; i < serveShards; i++ {
		srv, err := simserve.Open(simserve.Config{
			Workers:  1,
			StateDir: filepath.Join(scratch, fmt.Sprintf("shard%d", i)),
			ShardID:  fmt.Sprintf("shard%d", i),
			Runner:   w.runner,
		})
		if err != nil {
			w.close()
			return nil, err
		}
		w.shards = append(w.shards, srv)
		addr, err := w.listen(w.traced("shard", srv.Handler()))
		if err != nil {
			w.close()
			return nil, err
		}
		addrs = append(addrs, addr)
		w.metrics = append(w.metrics, "http://"+addr+"/metrics")
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Shards: addrs})
	if err != nil {
		w.close()
		return nil, err
	}
	w.router = router
	addr, err := w.listen(w.traced("router", router.Handler()))
	if err != nil {
		w.close()
		return nil, err
	}
	router.Start()
	w.base = "http://" + addr
	w.metrics = append(w.metrics, w.base+"/metrics")
	w.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns},
	}

	// Warm the hot set through the router, checking every answer.
	w.hot = hotSet(seed)
	for _, s := range w.hot {
		want, _, err := expectedResult(s)
		if err != nil {
			w.close()
			return nil, err
		}
		w.hotWant = append(w.hotWant, want)
	}
	for i := 0; i < hotSetSize; i += batchSize {
		status, results, err := w.post(w.hot[i : i+batchSize])
		if err != nil || status != http.StatusOK {
			w.close()
			return nil, fmt.Errorf("serve set-up: warming the hot set: HTTP %d %v", status, err)
		}
		for j, got := range results {
			if !bytes.Equal(got, w.hotWant[i+j]) {
				w.close()
				return nil, fmt.Errorf("serve set-up: hot spec %d answered wrongly", i+j)
			}
		}
	}
	if err := fillEnginePools(w.hot); err != nil {
		w.close()
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	return w, nil
}

// fillEnginePools runs every hot benchmark twice at once, poolFillRounds
// times. The engines keep each cache hierarchy they build in a free
// list, so the live heap grows with the most runs of one benchmark ever
// in flight together, which is up to two here (one per shard worker)
// and, on one processor, a matter of timing. On two processors the two
// runs overlap in nearly every round, so the lists start at the size
// the run can reach and heap_peak_mb does not read the timing.
func fillEnginePools(hot []experiments.Spec) error {
	const poolFillRounds = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveShards))
	for i := 0; i < poolFillRounds*len(hotBenches); i++ {
		b := i % len(hotBenches)
		var wg sync.WaitGroup
		errs := make([]error, serveShards)
		for k := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[k] = experiments.RunSpec(hot[b+k*len(hotBenches)])
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// hotSet draws the specs cache-hit requests ask for.
func hotSet(seed uint64) []experiments.Spec {
	rng := rand.New(rand.NewPCG(seed, 0x686f74))
	hot := make([]experiments.Spec, hotSetSize)
	for i := range hot {
		hot[i] = experiments.Spec{Bench: hotBenches[i%len(hotBenches)], Seed: 1000 + rng.Uint64N(1<<40)}
	}
	return hot
}

// runner is the shards' Config.Runner: the default run, with a span
// when tracing.
func (w *serve) runner(s experiments.Spec, attempt int) (core.Result, error) {
	t0 := time.Now()
	r, err := experiments.RunSpecAttempt(s, attempt, 0)
	if tr := w.tr.Load(); tr != nil {
		id, _ := s.ID()
		tr.record("run", id, t0, time.Now())
	}
	return r, err
}

// traced wraps a job handler with a span per POST /jobs while tracing.
// The span key is the spec's content address for single-spec requests
// and empty for batches. Reading the key out of the body is the
// benchmark's own work (asDriver), outside the span and the profile.
func (w *serve) traced(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		if tr == nil || r.Method != http.MethodPost || r.URL.Path != "/jobs" {
			h.ServeHTTP(rw, r)
			return
		}
		var body []byte
		var err error
		asDriver(func() { body, err = io.ReadAll(r.Body) })
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		end := time.Now()
		asDriver(func() { tr.record(name, singleSpecID(body), t0, end) })
	})
}

func singleSpecID(body []byte) string {
	var req struct {
		Specs []experiments.Spec `json:"specs"`
	}
	if json.Unmarshal(body, &req) != nil || len(req.Specs) != 1 {
		return ""
	}
	id, _ := req.Specs[0].ID()
	return id
}

// listen serves h on a loopback port until close.
func (w *serve) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	w.servers = append(w.servers, srv)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return ln.Addr().String(), nil
}

func (w *serve) close() {
	if w.router != nil {
		w.router.Close()
	}
	for _, s := range w.servers {
		_ = s.Close()
	}
	w.wg.Wait()
	for _, s := range w.shards {
		s.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// expectedResult runs s directly and renders the simserve.JobResult
// bytes every answer for s must equal.
func expectedResult(s experiments.Spec) ([]byte, core.Result, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, core.Result{}, err
	}
	id, err := n.ID()
	if err != nil {
		return nil, core.Result{}, err
	}
	r, err := experiments.RunSpec(n)
	if err != nil {
		return nil, core.Result{}, err
	}
	data, err := json.Marshal(simserve.JobResult{
		ID: id, Spec: n, SimTimePS: int64(r.SimTime), SimTime: r.SimTime.String(),
		NEXStats: r.NEXStats, Devices: r.Devices,
	})
	return data, r, err
}

// post submits specs as one wait=true request to the router.
func (w *serve) post(specs []experiments.Spec) (int, []json.RawMessage, error) {
	body, err := json.Marshal(struct {
		Specs []experiments.Spec `json:"specs"`
		Wait  bool               `json:"wait"`
	}{specs, true})
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.client.Post(w.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, err
	}
	var env struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return resp.StatusCode, nil, err
	}
	if len(env.Results) != len(specs) {
		return resp.StatusCode, nil, fmt.Errorf("%d results for %d specs", len(env.Results), len(specs))
	}
	return resp.StatusCode, env.Results, nil
}

// request is one scheduled arrival.
type request struct {
	at    time.Duration // due time after the schedule's start
	class int
	specs []experiments.Spec
	hot   []int // hot-set index per spec, -1 for fresh specs
}

// schedule draws Poisson arrivals at rate for d.
func (w *serve) schedule(rng *rand.Rand, rate float64, d time.Duration) []request {
	zipf := rand.NewZipf(rng, zipfS, 1, hotSetSize-1)
	hotSpec := func() (experiments.Spec, int) {
		i := int(zipf.Uint64())
		return w.hot[i], i
	}
	fresh := func() experiments.Spec {
		return experiments.Spec{Bench: coldBench, Seed: 1<<41 + rng.Uint64N(1<<40)}
	}
	var reqs []request
	var deck []int
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= d {
			return reqs
		}
		if len(deck) == 0 {
			deck = append(deck, mixDeck...)
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		r := request{at: at, class: deck[0]}
		deck = deck[1:]
		switch r.class {
		case classHit:
			s, i := hotSpec()
			r.specs, r.hot = []experiments.Spec{s}, []int{i}
		case classCold:
			r.specs, r.hot = []experiments.Spec{fresh()}, []int{-1}
		default:
			for j := 0; j < batchSize; j++ {
				if j%2 == 0 {
					s, i := hotSpec()
					r.specs, r.hot = append(r.specs, s), append(r.hot, i)
				} else {
					r.specs, r.hot = append(r.specs, fresh()), append(r.hot, -1)
				}
			}
		}
		reqs = append(reqs, r)
	}
}

// drive sends reqs on their schedule from maxConns senders, checks
// every answer as it arrives, and returns the tally once all are
// answered. A non-zero stopAt makes the senders a closed loop instead:
// each sends its next request as soon as the last is answered, ignoring
// due times, until stopAt.
func (w *serve) drive(reqs []request, stopAt time.Time) *tally {
	t := &tally{fresh: map[string]json.RawMessage{}}
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].at)
				if !stopAt.IsZero() {
					if time.Now().After(stopAt) {
						return
					}
					due = time.Now()
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				if sent.Sub(due) > abandonLag {
					t.abandon()
					continue
				}
				status, results, err := w.post(reqs[i].specs)
				t.observe(w, reqs[i], sent.Sub(due), time.Since(due), status, results, err)
			}
		}()
	}
	wg.Wait()
	return t
}

// tally is what one driven schedule measured.
type tally struct {
	mu                        sync.Mutex
	sent, ok, failed, refused [numClasses]int
	latencies                 [numClasses][]float64
	all, lags                 []float64
	unsent                    int
	fresh                     map[string]json.RawMessage // answers for fresh specs, by spec ID
	freshSpecs                []experiments.Spec
}

func (t *tally) abandon() {
	t.mu.Lock()
	t.unsent++
	t.mu.Unlock()
}

// observe classifies and verifies one answer. Hot answers are checked
// now; fresh answers are kept for checkFresh.
func (t *tally) observe(w *serve, q request, lag, latency time.Duration, status int, results []json.RawMessage, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := q.class
	t.sent[c]++
	t.lags = append(t.lags, ms(lag))
	switch {
	case status == http.StatusTooManyRequests:
		t.refused[c]++
		return
	case err != nil || status != http.StatusOK:
		t.failed[c]++
		return
	}
	good := true
	for j, got := range results {
		if h := q.hot[j]; h >= 0 {
			good = good && bytes.Equal(got, w.hotWant[h])
			continue
		}
		id, err := q.specs[j].ID()
		if err != nil {
			good = false
			continue
		}
		if _, seen := t.fresh[id]; !seen {
			t.freshSpecs = append(t.freshSpecs, q.specs[j])
		}
		t.fresh[id] = got
	}
	if !good {
		t.failed[c]++
		return
	}
	t.ok[c]++
	t.latencies[c] = append(t.latencies[c], ms(latency))
	t.all = append(t.all, ms(latency))
}

// checkFresh re-runs every fresh spec directly and compares the served
// bytes; it returns how many differed and the runs' engine counts.
func checkFresh(t *tally) (int, map[string]float64, error) {
	counts := map[string]float64{}
	bad := 0
	for _, s := range t.freshSpecs {
		want, r, err := expectedResult(s)
		if err != nil {
			return 0, nil, err
		}
		id, _ := s.ID()
		if !bytes.Equal(t.fresh[id], want) {
			bad++
		}
		addRunCounts(counts, r)
	}
	return bad, counts, nil
}

// measure runs one phase as the benchmark's own work (asDriver): the
// load generator, its connections and the answer checks are left out of
// a CPU profile, so only the router and the shards, which serve on
// goroutines of their own, count toward the layers.
func (w *serve) measure(p phase) (o outcome, err error) {
	// Idle client connections were dialled outside the label, and their
	// read and write loops would keep running unlabelled.
	w.client.CloseIdleConnections()
	asDriver(func() { o, err = w.measurePhase(p) })
	return o, err
}

func (w *serve) measurePhase(p phase) (outcome, error) {
	rng := rand.New(rand.NewPCG(w.seed, uint64(p.index)+1))
	mainDur := p.duration
	if p.ladder {
		mainDur = p.duration * 2 / 5
	}
	reqs := w.schedule(rng, mainRate, mainDur)
	w.tr.Store(p.tr)
	before, err := w.scrape()
	if err != nil {
		return outcome{}, err
	}
	t := w.drive(reqs, time.Time{})
	after, err := w.scrape()
	w.tr.Store(nil)
	if err != nil {
		return outcome{}, err
	}
	bad, counts, err := checkFresh(t)
	if err != nil {
		return outcome{}, err
	}

	var o outcome
	o.absorb(t, bad)
	// Serve's figures are not scaled (see speedProbe): over ten-seed
	// sets they spread about as much raw as scaled. At GOMAXPROCS=1
	// the serving speed depends on more than the CPU speed a lone
	// kernel sees.
	o.slowness = 1
	o.p50ms = median(t.all)
	o.p90ms = quantile(t.all, 0.9)
	for c, name := range classNames {
		o.add("serve."+name+".sent", float64(t.sent[c]), "count")
		o.add("serve."+name+".ok", float64(t.ok[c]), "count")
		o.add("serve."+name+".failed", float64(t.failed[c]), "count")
		o.add("serve."+name+".refused", float64(t.refused[c]), "count")
	}
	o.add("serve.hit_p50_ms", median(t.latencies[classHit]), "ms")
	o.add("serve.hit_p99_ms", quantile(t.latencies[classHit], 0.99), "ms")
	o.add("serve.cold_p50_ms", median(t.latencies[classCold]), "ms")
	o.add("serve.cold_p90_ms", quantile(t.latencies[classCold], 0.9), "ms")
	o.add("serve.batch_p50_ms", median(t.latencies[classBatch]), "ms")
	o.add("serve.gen_lag_ms_p99", quantile(t.lags, 0.99), "ms")
	// The heap is taken after the main phase, whose request count the
	// seed fixes: the capacity phases cache as many fresh answers as
	// the machine managed to serve.
	if p.tr == nil {
		o.heapMB = liveHeapMB()
	}

	if p.ladder {
		// Capacity: both connections back to back, same mix.
		rps, err := w.closedLoop(rng, p.duration*3/10, &o)
		if err != nil {
			return outcome{}, err
		}
		o.opsPerS = rps
		o.add("serve.closed_rps", rps, "1/s")
		rate, err := w.ladder(rng, p.duration*3/10, &o)
		if err != nil {
			return outcome{}, err
		}
		o.add("serve.max_rps_at_slo", rate, "1/s")
	}
	if p.tr != nil {
		o.layers = counts
		w.serveLayers(p.tr, t, before, after, o.layers)
	}
	return o, nil
}

func (o *outcome) absorb(t *tally, bad int) {
	for c := 0; c < numClasses; c++ {
		o.attempted += t.sent[c]
		o.succeeded += t.ok[c]
		o.failed += t.failed[c]
		o.refused += t.refused[c]
	}
	o.succeeded -= bad
	o.failed += bad
}

// closedLoop runs the traffic mix with both connections sending back to
// back for d and returns the requests answered per second.
func (w *serve) closedLoop(rng *rand.Rand, d time.Duration, o *outcome) (float64, error) {
	// The loop ends early if it runs out of requests; the rate is
	// still answers over elapsed time.
	const closedCap = 2500
	reqs := w.schedule(rng, closedCap, d)
	start := time.Now()
	t := w.drive(reqs, start.Add(d))
	elapsed := time.Since(start)
	bad, _, err := checkFresh(t)
	if err != nil {
		return 0, err
	}
	o.absorb(t, bad)
	return float64(len(t.all)) / elapsed.Seconds(), nil
}

// ladder drives each fixed rate for an equal share of d and returns the
// highest rate meeting the SLO. A rung's score is the larger of its p90
// latency and its closing backlog (the median lag of its last tenth of
// requests), over sloP90; a rung with any failed, refused or abandoned
// request scores at least 2. The answer interpolates the score's
// crossing of 1 between the highest passing rung and the rung above it.
// The ladder stops after two failing rungs in a row.
func (w *serve) ladder(rng *rand.Rand, d time.Duration, o *outcome) (float64, error) {
	rungDur := d / time.Duration(len(ladderRates))
	var scores []float64
	for k, rate := range ladderRates {
		if k >= 2 && scores[k-1] > 1 && scores[k-2] > 1 {
			break
		}
		reqs := w.schedule(rng, rate, rungDur)
		t := w.drive(reqs, time.Time{})
		bad, _, err := checkFresh(t)
		if err != nil {
			return 0, err
		}
		o.absorb(t, bad)
		p90 := quantile(t.all, 0.9)
		backlog := median(t.lags[len(t.lags)*9/10:])
		x := math.Max(p90, backlog) / ms(sloP90)
		missed := bad + t.unsent
		for c := 0; c < numClasses; c++ {
			missed += t.failed[c] + t.refused[c]
		}
		if missed > 0 {
			x = math.Max(x, 2)
		}
		o.add(fmt.Sprintf("serve.rung_%g_p90_ms", rate), p90, "ms")
		o.add(fmt.Sprintf("serve.rung_%g_backlog_ms", rate), backlog, "ms")
		scores = append(scores, x)
	}
	best := -1
	for k, x := range scores {
		if x <= 1 {
			best = k
		}
	}
	switch {
	case best < 0:
		// Even the lowest rung misses: scale it by its score.
		return ladderRates[0] / scores[0], nil
	case best == len(scores)-1:
		return ladderRates[best], nil
	}
	lo, hi := ladderRates[best], ladderRates[best+1]
	xlo, xhi := scores[best], scores[best+1]
	return lo + (hi-lo)*(1-xlo)/(xhi-xlo), nil
}

// scrape reads the counters of every /metrics page (shards, then
// router), summed across pages by metric name with labels dropped.
func (w *serve) scrape() (map[string]float64, error) {
	sums := map[string]float64{}
	for _, url := range w.metrics {
		resp, err := w.client.Get(url)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				continue
			}
			name, _, _ := strings.Cut(f[0], "{")
			sums[name] += v
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// serveLayers derives the serving per-layer metrics from the traced
// phase's spans and counter deltas.
func (w *serve) serveLayers(tr *tracer, t *tally, before, after map[string]float64, layers map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	runs := map[string][]span{}
	var runMS []float64
	for _, s := range tr.named("run") {
		runs[s.key] = append(runs[s.key], s)
		runMS = append(runMS, s.ms())
	}
	shardSpans := map[string][]span{}
	var hitMS, waitMS []float64
	for _, s := range tr.named("shard") {
		if s.key == "" {
			continue
		}
		shardSpans[s.key] = append(shardSpans[s.key], s)
		ran := false
		for _, r := range runs[s.key] {
			if !r.start.Before(s.start) && !r.end.After(s.end) {
				waitMS = append(waitMS, s.ms()-r.ms())
				ran = true
				break
			}
		}
		if !ran {
			hitMS = append(hitMS, s.ms())
		}
	}
	var routerSelf []float64
	for _, s := range tr.named("router") {
		for _, sh := range shardSpans[s.key] {
			if !sh.start.Before(s.start) && !sh.end.After(s.end) {
				routerSelf = append(routerSelf, s.ms()-sh.ms())
				break
			}
		}
	}
	hits, misses := delta("simserve_cache_hits"), delta("simserve_cache_misses")
	layers["simserve.hit_ms_p50"] = median(hitMS)
	layers["simserve.queue_wait_ms_p90"] = quantile(waitMS, 0.9)
	layers["simserve.run_ms_p50"] = median(runMS)
	layers["simserve.cache_hit_ratio"] = ratio(hits, hits+misses)
	layers["simserve.deduped"] = delta("simserve_jobs_deduped")
	refused := 0
	for c := 0; c < numClasses; c++ {
		refused += t.refused[c]
	}
	layers["simserve.rejected"] = float64(refused)
	layers["cluster.router_self_ms_p50"] = median(routerSelf)
	layers["cluster.router_self_ms_p99"] = quantile(routerSelf, 0.99)
	layers["cluster.forwards"] = delta("simrouter_shard_forwards")
	layers["cluster.hedges"] = delta("simrouter_hedges_launched")
	layers["cluster.hotset_pushes"] = delta("simrouter_hotset_pushes")
	layers["cluster.failovers"] = delta("simrouter_failovers")
	layers["serve.gen_lag_ms_p99"] = quantile(t.lags, 0.99)
}
