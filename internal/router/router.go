// Package router is the multi-node tier over mpud: an HTTP front end that
// shards /v1/execute requests across N mpud nodes by consistent hashing on
// (backend, mode, program-hash), so identical programs land on the node
// whose batching coalescer, ProgMemo, and per-core trace caches already hold
// them. Around the hash it layers the datacenter mechanics one daemon
// cannot provide: per-tenant weighted-fair admission (stride scheduling over
// bounded queues, 429 on saturation), bounded retry with hedging on 503 and
// connect failure (a speculative duplicate after the tracked p95 latency,
// loser canceled), and health/readiness tracking driven by one probe of each
// node's /healthz, whose typed body (obs.NodeHealth) carries queue_depth and
// inflight (probe → EWMA → least-loaded tiebreak within the hash's candidate
// set, with a pool-autoscale advisory log under sustained depth).
//
// Hedging policy: only POST /v1/execute is ever hedged, because the
// determinism contract makes it idempotent — the same request produces
// byte-identical machine.Stats on any node, cold or warm, so a duplicate
// in flight is observationally free. Nothing else is duplicated: drains are
// delivered by signal to a node, never proxied; the /v1/pipelines session
// plane is stateful and non-idempotent, so it is forwarded single-attempt
// with session affinity (see pipeline.go); and any future non-idempotent
// verb must follow the same rule (clients can also force single-attempt on
// execute with the X-No-Hedge header). The client-visible
// contract is the single-node one: byte-identical stats envelopes, 503 +
// Retry-After only when no node can accept work.
//
// Like internal/serve, the package is stdlib-only.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config assembles a Router.
type Config struct {
	// Nodes lists the mpud base URLs ("http://127.0.0.1:9001"). Required.
	Nodes []string

	// Replicas is the number of virtual points per node on the hash ring.
	// Default 64.
	Replicas int

	// Candidates is the size of each key's candidate set: the primary owner
	// plus the nodes eligible for the least-loaded tiebreak and for hedging.
	// Default 2.
	Candidates int

	// Retries bounds the extra attempts made after a 503 or transport
	// failure (the first attempt is free). Default 2.
	Retries int

	// Hedge enables speculative duplicates: when the primary attempt has
	// not answered after the tracked p95 attempt latency, one duplicate is
	// launched at the next candidate and the loser is canceled.
	Hedge bool

	// HedgeMin/HedgeMax clamp the hedge trigger delay. Defaults 1ms/250ms;
	// with no latency samples yet the delay is HedgeMax (hedge
	// conservatively before there is data).
	HedgeMin time.Duration
	HedgeMax time.Duration

	// SpillLoad is the least-loaded hysteresis: the primary owner keeps the
	// request (cache affinity) unless its EWMA load exceeds the best
	// candidate's by more than this. Default 4.
	SpillLoad float64

	// MaxInflight bounds concurrently forwarded requests across all
	// tenants; the weighted-fair gate applies under contention. Default 256.
	MaxInflight int

	// TenantQueue bounds each tenant's admission wait queue; beyond it the
	// tenant gets 429 + Retry-After. Default 128.
	TenantQueue int

	// Tenants maps tenant name (the X-Tenant header) to weight; unlisted
	// tenants get weight 1.
	Tenants map[string]int

	// ScrapeInterval is the node /healthz poll period. Default 250ms.
	ScrapeInterval time.Duration

	// AutoscaleDepth and AutoscaleSustain shape the pool-autoscale
	// advisory: a node whose scraped queue depth is >= AutoscaleDepth for
	// AutoscaleSustain consecutive scrapes gets one advisory log line per
	// hot episode. Defaults 32 and 8; AutoscaleDepth <= 0 disables.
	AutoscaleDepth   int
	AutoscaleSustain int

	// RetryAfter is the hint returned with 429/503 responses. Default 1s.
	RetryAfter time.Duration

	// Client overrides the forwarding HTTP client (tests); nil builds one
	// with a 2-minute timeout.
	Client *http.Client

	// Logs receives one JSON line per routing event; nil discards.
	Logs io.Writer
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.Candidates <= 0 {
		c.Candidates = 2
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 250 * time.Millisecond
	}
	if c.SpillLoad <= 0 {
		c.SpillLoad = 4
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.TenantQueue <= 0 {
		c.TenantQueue = 128
	}
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = 250 * time.Millisecond
	}
	if c.AutoscaleSustain <= 0 {
		c.AutoscaleSustain = 8
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Router shards requests across the node set. Create with New, mount as an
// http.Handler, Drain to stop admitting, Close to stop the scraper.
type Router struct {
	cfg      Config
	mux      *http.ServeMux
	ring     *ring
	nodes    []*nodeState
	adm      *fairAdmission
	metrics  *rmetrics
	client   *http.Client
	lat      latencyTracker
	paffMu   sync.Mutex
	paff     map[string]*nodeState // pipeline session ID → pinned node
	logMu    sync.Mutex
	draining atomic.Bool
	stop     chan struct{}
	scrapeWG sync.WaitGroup
	started  time.Time
}

// New validates the node list, builds the hash ring, performs one
// synchronous scrape (so a cluster that is already up is routable
// immediately), and starts the background scrape loop.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("router: no nodes configured")
	}
	rt := &Router{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: newRMetrics(),
		adm:     newFairAdmission(cfg.MaxInflight, cfg.TenantQueue, cfg.Tenants),
		client:  cfg.Client,
		paff:    map[string]*nodeState{},
		stop:    make(chan struct{}),
		started: time.Now(),
	}
	if rt.client == nil {
		rt.client = &http.Client{Timeout: 2 * time.Minute}
	}
	seen := map[string]bool{}
	names := make([]string, 0, len(cfg.Nodes))
	for _, base := range cfg.Nodes {
		base = strings.TrimRight(strings.TrimSpace(base), "/")
		if base == "" {
			continue
		}
		name := strings.TrimPrefix(strings.TrimPrefix(base, "https://"), "http://")
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate node %s", name)
		}
		seen[name] = true
		names = append(names, name)
		rt.nodes = append(rt.nodes, &nodeState{name: name, base: base})
	}
	if len(rt.nodes) == 0 {
		return nil, errors.New("router: no nodes configured")
	}
	rt.ring = newRing(names, cfg.Replicas)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/v1/execute", rt.handleExecute)
	rt.mux.HandleFunc("/v1/workloads", rt.handleWorkloads)
	rt.mux.HandleFunc("/v1/pipelines", rt.handlePipelines)
	rt.mux.HandleFunc("/v1/pipelines/", rt.handlePipelineID)
	rt.scrapeAll()
	rt.scrapeWG.Add(1)
	go rt.scrapeLoop(rt.stop)
	return rt, nil
}

// ServeHTTP dispatches to the router's endpoints.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Drain stops admitting: /v1/execute and /healthz answer 503 while
// forwarded requests complete. Idempotent.
func (rt *Router) Drain() {
	if rt.draining.CompareAndSwap(false, true) {
		rt.logf(routerLog{Msg: "drain"})
	}
}

// Draining reports whether Drain has been called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// Close drains and stops the scrape loop. Call after the HTTP layer has
// finished in-flight handlers.
func (rt *Router) Close() {
	rt.Drain()
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	rt.scrapeWG.Wait()
	rt.logf(routerLog{Msg: "closed"})
}

// Hedging reports (hedges, hedge wins, retries) — the study drivers report
// the hedge rate honestly alongside the p99 it buys.
func (rt *Router) Hedging() (hedges, wins, retries uint64) {
	m := rt.metrics
	return uint64(m.hedges.Value()), uint64(m.hedgeWins.Value()), uint64(m.retries.Value())
}

// shardFields is the subset of the execute request the router reads: just
// enough to place the program. Everything else is opaque and relayed.
type shardFields struct {
	Workload string `json:"workload"`
	Binary   string `json:"binary"`
	Backend  string `json:"backend"`
	Mode     string `json:"mode"`
}

// shardKey is the consistent-hashing identity: (backend, mode,
// program-hash). Elements and seed are deliberately excluded — the same
// program over different data still wants the node with its compiled traces.
func shardKey(f *shardFields) string {
	mode := strings.ToLower(strings.TrimSpace(f.Mode))
	if mode == "" {
		mode = "mpu"
	}
	prog := f.Workload
	if f.Binary != "" {
		prog = fmt.Sprintf("bin:%016x", fnv64(f.Binary))
	}
	return strings.ToLower(strings.TrimSpace(f.Backend)) + "|" + mode + "|" + prog
}

// targetsFor orders the ready nodes for a key: the ring's candidate
// preference order, with the least-loaded member of the candidate set moved
// to the front when the primary owner's EWMA load exceeds it by more than
// the SpillLoad hysteresis (cache affinity wins ties; real imbalance spills).
func (rt *Router) targetsFor(key string) []*nodeState {
	ordered := rt.ring.candidates(key, len(rt.nodes))
	ready := make([]*nodeState, 0, len(ordered))
	for _, i := range ordered {
		if rt.nodes[i].ready.Load() {
			ready = append(ready, rt.nodes[i])
		}
	}
	if len(ready) < 2 {
		return ready
	}
	cset := len(ready)
	if cset > rt.cfg.Candidates {
		cset = rt.cfg.Candidates
	}
	best := 0
	for i := 1; i < cset; i++ {
		if ready[i].effLoad() < ready[best].effLoad() {
			best = i
		}
	}
	if best != 0 && ready[0].effLoad() > ready[best].effLoad()+rt.cfg.SpillLoad {
		ready[0], ready[best] = ready[best], ready[0]
	}
	return ready
}

// attempt is one forwarded try's outcome.
type attempt struct {
	idx        int
	node       *nodeState
	status     int
	body       []byte
	retryAfter string
	err        error
}

// retryable: transport failure or node-side backpressure. Everything else —
// including 4xx and execution faults — is deterministic and relayed as-is.
func retryable(a attempt) bool {
	return a.err != nil || a.status == http.StatusServiceUnavailable
}

// forward runs the bounded retry + hedge state machine over the ordered
// target list and returns the winning attempt (or the last retryable
// failure). started counts attempts launched; hedgeWon reports whether the
// speculative duplicate answered first.
func (rt *Router) forward(ctx context.Context, body []byte, qos string, targets []*nodeState, hedge bool) (win attempt, started int, hedged, hedgeWon bool) {
	results := make(chan attempt, len(targets))
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	launch := func(i int) {
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		n := targets[i]
		n.outstanding.Add(1)
		go func() {
			defer n.outstanding.Add(-1)
			st, b, ra, err := rt.post(actx, n, body, qos)
			results <- attempt{idx: i, node: n, status: st, body: b, retryAfter: ra, err: err}
		}()
	}
	launch(0)
	started = 1
	outstanding := 1
	retriesUsed := 0
	hedgeIdx := -1
	var hedgeTimer <-chan time.Time
	if hedge && len(targets) > 1 {
		hedgeTimer = time.After(rt.hedgeDelay())
	}
	var last attempt
	for {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			if started < len(targets) && outstanding > 0 {
				hedgeIdx = started
				launch(started)
				started++
				outstanding++
				hedged = true
				rt.metrics.hedges.Inc()
			}
		case a := <-results:
			outstanding--
			if !retryable(a) {
				if hedged && a.idx == hedgeIdx {
					hedgeWon = true
					rt.metrics.hedgeWins.Inc()
				}
				return a, started, hedged, hedgeWon
			}
			last = a
			if a.err != nil {
				rt.unreadyOnTransportFailure(ctx, a)
			}
			if started < len(targets) && retriesUsed < rt.cfg.Retries && ctx.Err() == nil {
				launch(started)
				started++
				outstanding++
				retriesUsed++
				rt.metrics.retries.Inc()
				continue
			}
			if outstanding > 0 {
				continue // a hedge sibling may still win
			}
			return last, started, hedged, hedgeWon
		case <-ctx.Done():
			return attempt{err: ctx.Err()}, started, hedged, hedgeWon
		}
	}
}

// post forwards one attempt and feeds the p95 tracker on success.
func (rt *Router) post(ctx context.Context, n *nodeState, body []byte, qos string) (status int, respBody []byte, retryAfter string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.base+"/v1/execute", bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if qos != "" {
		// Relay the QoS class verbatim: the node validates it, and a 400 for
		// a bad class is deterministic, so it is relayed, never retried.
		req.Header.Set("X-QoS", qos)
	}
	t0 := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return 0, nil, "", err
	}
	if resp.StatusCode == http.StatusOK {
		rt.lat.observe(time.Since(t0).Seconds())
	}
	return resp.StatusCode, b, resp.Header.Get("Retry-After"), nil
}

func (rt *Router) handleExecute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		rt.finishError(w, start, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err), "")
		return
	}
	var sf shardFields
	if err := json.Unmarshal(body, &sf); err != nil {
		rt.finishError(w, start, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err), "")
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if rt.Draining() {
		rt.retryLater(w, start, http.StatusServiceUnavailable, tenant, "draining")
		return
	}
	if err := rt.adm.acquire(r.Context(), tenant); err != nil {
		if errors.Is(err, errTenantSaturated) {
			rt.retryLater(w, start, http.StatusTooManyRequests, tenant, "tenant admission queue full")
			return
		}
		rt.finishError(w, start, http.StatusGatewayTimeout, tenant, "canceled while waiting for admission", "")
		return
	}
	defer rt.adm.release()
	rt.metrics.inflight.Inc()
	defer rt.metrics.inflight.Add(-1)

	key := shardKey(&sf)
	targets := rt.targetsFor(key)
	if len(targets) == 0 {
		rt.retryLater(w, start, http.StatusServiceUnavailable, tenant, "no ready nodes")
		return
	}
	hedge := rt.cfg.Hedge && r.Header.Get("X-No-Hedge") == ""
	win, attempts, hedged, hedgeWon := rt.forward(r.Context(), body, r.Header.Get("X-QoS"), targets, hedge)
	if win.err != nil {
		status := http.StatusBadGateway
		if errors.Is(win.err, context.Canceled) || errors.Is(win.err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		rt.finishError(w, start, status, tenant, win.err.Error(), key)
		return
	}
	if win.status == http.StatusServiceUnavailable && win.retryAfter != "" {
		w.Header().Set("Retry-After", win.retryAfter)
	}
	w.Header().Set("X-Mpurouter-Node", win.node.name)
	w.Header().Set("X-Mpurouter-Attempts", fmt.Sprint(attempts))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(win.status)
	w.Write(win.body)
	rt.metrics.observeRequest(win.status, time.Since(start).Seconds())
	rt.metrics.nodeForwards.With(win.node.name).Inc()
	rt.logf(routerLog{
		Msg: "route", Tenant: tenant, Node: win.node.name, Key: key,
		Status: win.status, MS: time.Since(start).Seconds() * 1e3,
		Attempts: attempts, Hedged: hedged, HedgeWon: hedgeWon,
	})
}

// retryLater answers a refusal with Retry-After, the admission-side
// backpressure path (503: no capacity / draining; 429: tenant saturated).
func (rt *Router) retryLater(w http.ResponseWriter, start time.Time, status int, tenant, why string) {
	w.Header().Set("Retry-After", fmt.Sprint(int((rt.cfg.RetryAfter+time.Second-1)/time.Second)))
	rt.finishError(w, start, status, tenant, why, "")
}

func (rt *Router) finishError(w http.ResponseWriter, start time.Time, status int, tenant, msg, key string) {
	writeJSONError(w, status, msg)
	rt.metrics.observeRequest(status, time.Since(start).Seconds())
	rt.logf(routerLog{Msg: "refuse", Tenant: tenant, Key: key, Status: status,
		MS: time.Since(start).Seconds() * 1e3, Err: msg})
}

func (rt *Router) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	for _, n := range rt.nodes {
		if !n.ready.Load() {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/v1/workloads", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		cancel()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		return
	}
	writeJSONError(w, http.StatusServiceUnavailable, "no ready nodes")
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type nodeHealth struct {
		Name       string  `json:"name"`
		URL        string  `json:"url"`
		Ready      bool    `json:"ready"`
		Load       float64 `json:"load"`
		QueueDepth int64   `json:"queue_depth"`
		Inflight   int64   `json:"inflight"`
	}
	var h struct {
		Status string       `json:"status"`
		Nodes  []nodeHealth `json:"nodes"`
		UpSec  float64      `json:"up_sec"`
	}
	readyCount := 0
	for _, n := range rt.nodes {
		nh := nodeHealth{
			Name: n.name, URL: n.base, Ready: n.ready.Load(), Load: n.load(),
			QueueDepth: n.queueDepth.Load(), Inflight: n.inflight.Load(),
		}
		if nh.Ready {
			readyCount++
		}
		h.Nodes = append(h.Nodes, nh)
	}
	h.UpSec = time.Since(rt.started).Seconds()
	code := http.StatusOK
	switch {
	case rt.Draining():
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	case readyCount == 0:
		h.Status = "down"
		code = http.StatusServiceUnavailable
	case readyCount < len(rt.nodes):
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	writeJSONStatus(w, code, h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.metrics.render(w, rt.nodes, rt.adm.snapshot(), rt.hedgeDelay().Seconds(), rt.pinnedPipelines())
}

// hedgeDelay is the current speculative-duplicate trigger: the tracked p95
// attempt latency clamped to [HedgeMin, HedgeMax]; HedgeMax before any
// sample exists.
func (rt *Router) hedgeDelay() time.Duration {
	p := rt.lat.p95()
	if p <= 0 {
		return rt.cfg.HedgeMax
	}
	d := time.Duration(p * float64(time.Second))
	if d < rt.cfg.HedgeMin {
		d = rt.cfg.HedgeMin
	}
	if d > rt.cfg.HedgeMax {
		d = rt.cfg.HedgeMax
	}
	return d
}

// latencyTracker keeps a ring of recent successful attempt latencies and
// serves their p95; recomputed lazily every refreshEvery observations.
type latencyTracker struct {
	mu     sync.Mutex
	buf    [512]float64
	n      int // filled entries
	idx    int // next write
	since  int // observations since last recompute
	cached float64
}

const refreshEvery = 16

func (t *latencyTracker) observe(sec float64) {
	t.mu.Lock()
	t.buf[t.idx] = sec
	t.idx = (t.idx + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
	t.since++
	if t.since >= refreshEvery || t.cached == 0 {
		t.since = 0
		s := make([]float64, t.n)
		copy(s, t.buf[:t.n])
		sort.Float64s(s)
		t.cached = s[int(0.95*float64(len(s)-1))]
	}
	t.mu.Unlock()
}

func (t *latencyTracker) p95() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cached
}

// routerLog is the router's JSON log-line schema.
type routerLog struct {
	TS       string  `json:"ts"`
	Msg      string  `json:"msg"`
	Tenant   string  `json:"tenant,omitempty"`
	Node     string  `json:"node,omitempty"`
	Key      string  `json:"key,omitempty"`
	Pipeline string  `json:"pipeline,omitempty"`
	Status   int     `json:"status,omitempty"`
	MS       float64 `json:"ms,omitempty"`
	Attempts int     `json:"attempts,omitempty"`
	Hedged   bool    `json:"hedged,omitempty"`
	HedgeWon bool    `json:"hedge_won,omitempty"`
	Queue    int     `json:"queue,omitempty"`
	Err      string  `json:"err,omitempty"`
}

func (rt *Router) logf(e routerLog) {
	if rt.cfg.Logs == nil {
		return
	}
	e.TS = time.Now().UTC().Format(time.RFC3339Nano)
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	b = append(b, '\n')
	rt.logMu.Lock()
	rt.cfg.Logs.Write(b)
	rt.logMu.Unlock()
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	if status == 0 {
		return
	}
	writeJSONStatus(w, status, map[string]string{"error": msg})
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
