package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"nexsim/internal/experiments"
	"nexsim/internal/simserve"
)

// RouterConfig parameterizes the cluster router.
type RouterConfig struct {
	// Shards is the static simd shard list (host:port).
	Shards []string
	// VNodes is the virtual-node count per shard (default 64).
	VNodes int
	// LoadFactor is the bounded-load ceiling factor c (default 1.25): a
	// key stays on its home shard while that shard's in-flight
	// sub-batches are strictly below c×⌈(inflight+1)/liveShards⌉ and
	// spills to the next replica past it. <= 1 disables load bounding
	// (pure consistent hashing).
	LoadFactor float64
	// HedgeAfter launches a duplicate sub-batch on the next replica for
	// any wait=true forward still unanswered after this long; the first
	// answer wins and the loser is byte-compared as a determinism probe.
	// 0 disables hedging (failover on hard errors still applies).
	HedgeAfter time.Duration
	// ForwardTimeout caps one forwarded request (default 5m; it must
	// exceed the shards' wait timeout or long sweeps degrade to polls).
	ForwardTimeout time.Duration

	// Membership knobs (see MembershipConfig).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int
	ReadmitOKs    int
	Probe         func(shard string) bool // test override
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.VNodes <= 0 {
		c.VNodes = defaultVNodes
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 5 * time.Minute
	}
	return c
}

// Routing failures the HTTP layer maps to status codes.
var (
	errNoLiveShards = errors.New("cluster: no live shards")
	errShed         = errors.New("cluster: all replicas at capacity")
	errExhausted    = errors.New("cluster: all replicas failed")
)

// Router is the stateless cluster front end: it owns no simulation
// state, only soft state (liveness, in-flight counts) that any
// replacement router rebuilds from traffic. Losing a router loses
// nothing but open connections.
type Router struct {
	cfg  RouterConfig
	ring *Ring
	mem  *Membership

	clients map[string]*http.Client // per-shard connection pools

	mu       sync.Mutex
	inflight map[string]int // outstanding sub-batches by shard
	m        *routerMetrics
}

// NewRouter builds a router over the static shard list. Call Start to
// launch the health-probe loop, Close to stop it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one shard required")
	}
	r := &Router{
		cfg:  cfg,
		ring: NewRing(cfg.Shards, cfg.VNodes),
		mem: NewMembership(MembershipConfig{
			Shards:        cfg.Shards,
			ProbeInterval: cfg.ProbeInterval,
			ProbeTimeout:  cfg.ProbeTimeout,
			FailThreshold: cfg.FailThreshold,
			ReadmitOKs:    cfg.ReadmitOKs,
			Probe:         cfg.Probe,
		}),
		clients:  make(map[string]*http.Client, len(cfg.Shards)),
		inflight: make(map[string]int, len(cfg.Shards)),
		m:        newRouterMetrics(),
	}
	for _, s := range cfg.Shards {
		r.clients[s] = &http.Client{
			Timeout: cfg.ForwardTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return r, nil
}

// Start launches the background /healthz probe loop.
func (r *Router) Start() { r.mem.Start() }

// Close stops the probe loop. In-flight forwards complete on their own
// contexts.
func (r *Router) Close() { r.mem.Close() }

// Membership exposes the liveness tracker (smoke tooling and tests).
func (r *Router) Membership() *Membership { return r.mem }

// client returns the shard's pooled HTTP client. The map is immutable
// after NewRouter, so reads need no lock.
func (r *Router) client(shard string) *http.Client { return r.clients[shard] }

// specItem is one routed spec: its position in the client's batch, its
// normalized form, and its content address (the placement key).
type specItem struct {
	idx  int
	spec experiments.Spec
	id   string
}

// itemResult is the routed outcome for one spec.
type itemResult struct {
	id     string
	status string          // simserve job status; "queued" when unknown
	result json.RawMessage // canonical JobResult bytes (wait=true, finished)
	shard  string          // shard that served it (determinism probe)
}

// --- HTTP surface ---

// Handler returns the router's HTTP routes — the same job API, in
// simserve's wire format, that the shards serve, so clients are
// oblivious to whether they talk to one simd or a cluster.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("POST /jobs", r.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", r.handleJob)
	return mux
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if r.mem.LiveCount() == 0 {
		http.Error(w, "no live shards", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write([]byte("ok\n")); err != nil {
		return
	}
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	r.renderMetrics(w)
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	r.m.requestsTotal++
	r.mu.Unlock()

	sr, err := simserve.DecodeSubmit(w, req)
	if err != nil {
		r.countBad()
		simserve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	items := make([]specItem, len(sr.Specs))
	for i, spec := range sr.Specs {
		n, err := spec.Normalized()
		if err != nil {
			r.countBad()
			simserve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		id, err := n.ID()
		if err != nil {
			r.countBad()
			simserve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		items[i] = specItem{idx: i, spec: n, id: id}
	}
	r.mu.Lock()
	r.m.specsTotal += int64(len(items))
	r.mu.Unlock()

	results, err := r.routeItems(req.Context(), items, sr.Wait, nil)
	if err != nil {
		switch {
		case errors.Is(err, errNoLiveShards):
			r.mu.Lock()
			r.m.noShards++
			r.mu.Unlock()
			simserve.WriteError(w, http.StatusServiceUnavailable, "no live shards")
		case errors.Is(err, errShed):
			r.mu.Lock()
			r.m.shedded++
			r.mu.Unlock()
			w.Header().Set("Retry-After", strconv.Itoa(simserve.RetryAfterSecs(items[0].id)))
			simserve.WriteError(w, http.StatusTooManyRequests, "cluster at capacity; resubmit")
		case errors.Is(err, req.Context().Err()):
			// Client went away; nothing to write.
		default:
			simserve.WriteError(w, http.StatusBadGateway, fmt.Sprintf("forwarding failed: %v", err))
		}
		return
	}

	if sr.Wait && allFinished(results) {
		raws := make([]json.RawMessage, len(results))
		for i, res := range results {
			raws[i] = res.result
		}
		simserve.WriteJSON(w, http.StatusOK, simserve.ResultsResponse{Results: raws})
		return
	}
	statuses := make([]simserve.JobStatus, len(results))
	for i, res := range results {
		statuses[i] = simserve.JobStatus{ID: res.id, Status: res.status}
	}
	simserve.WriteJSON(w, http.StatusAccepted, simserve.JobsResponse{Jobs: statuses})
}

func allFinished(results []itemResult) bool {
	for _, res := range results {
		if len(res.result) == 0 {
			return false
		}
	}
	return true
}

// handleJob resolves a poll by content address: the id's replicas in
// preference order, so a result that landed on a hedge target is still
// found after its home shard forgets it.
func (r *Router) handleJob(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	for _, shard := range r.ring.Order(id) {
		if !r.mem.Live(shard) {
			continue
		}
		resp, err := r.client(shard).Get(fmt.Sprintf("http://%s/jobs/%s", shard, id))
		if err != nil {
			r.mem.ReportFailure(shard)
			continue
		}
		var body json.RawMessage
		derr := json.NewDecoder(resp.Body).Decode(&body)
		_ = resp.Body.Close()
		if derr != nil || resp.StatusCode == http.StatusNotFound {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		body = append(body, '\n')
		if _, err := w.Write(body); err != nil {
			return
		}
		return
	}
	simserve.WriteError(w, http.StatusNotFound, "unknown job "+id)
}

func (r *Router) countBad() {
	r.mu.Lock()
	r.m.badRequests++
	r.mu.Unlock()
}

// groupByShard buckets items onto their bounded-load placements,
// excluding shards the caller has already failed over from. Group order
// is deterministic (sorted by shard name).
func (r *Router) groupByShard(items []specItem, exclude map[string]bool) (map[string][]specItem, error) {
	live := func(s string) bool { return r.mem.Live(s) && !exclude[s] }
	load := func(s string) int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.inflight[s]
	}
	groups := map[string][]specItem{}
	for _, it := range items {
		shard, ok := r.ring.BoundedPick(it.id, r.cfg.LoadFactor, live, load)
		if !ok {
			if r.mem.LiveCount() == 0 {
				return nil, errNoLiveShards
			}
			return nil, errExhausted
		}
		groups[shard] = append(groups[shard], it)
	}
	return groups, nil
}

// sortedShardKeys returns a group map's keys in stable order.
func sortedShardKeys(groups map[string][]specItem) []string {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
