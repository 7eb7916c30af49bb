package router

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

	"mpu/internal/machine"
	"mpu/internal/serve"
)

// clusterNode is one in-process mpud: a serve.Server behind httptest — the
// -smoke pattern from PR 5 scaled out to N nodes.
type clusterNode struct {
	srv *serve.Server
	ts  *httptest.Server
}

// startCluster spins up n in-process mpud nodes. mut, if non-nil, edits each
// node's config (slow nodes, pool sizes) before construction.
func startCluster(t *testing.T, n int, mut func(i int, c *serve.Config)) []clusterNode {
	t.Helper()
	nodes := make([]clusterNode, n)
	for i := 0; i < n; i++ {
		cfg := serve.Config{
			Pools:  []serve.PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 2}},
			NodeID: fmt.Sprintf("node%d", i),
		}
		if mut != nil {
			mut(i, &cfg)
		}
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		nodes[i] = clusterNode{srv: srv, ts: ts}
		t.Cleanup(srv.Close)
		t.Cleanup(ts.Close)
	}
	return nodes
}

func startRouter(t *testing.T, nodes []clusterNode, mut func(c *Config)) (*Router, *httptest.Server) {
	t.Helper()
	cfg := Config{
		ScrapeInterval: 25 * time.Millisecond,
		Hedge:          true,
	}
	for _, n := range nodes {
		cfg.Nodes = append(cfg.Nodes, n.ts.URL)
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(rt.Close)
	t.Cleanup(ts.Close)
	return rt, ts
}

func postJSON(t *testing.T, url string, req map[string]any, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/execute", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header
}

func statsOf(t *testing.T, body []byte) []byte {
	t.Helper()
	var r struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	return []byte(r.Stats)
}

// TestRouterParityThreeNodesVsSingle is the acceptance parity test: the same
// workload set run through a 3-node router — one node deliberately slow so
// some requests are hedged — yields per-request machine.Stats envelopes
// byte-identical to a single mpud, order-independent. Hedging is
// observationally free because every node computes identical stats.
func TestRouterParityThreeNodesVsSingle(t *testing.T) {
	single := startCluster(t, 1, nil)
	cluster := startCluster(t, 3, func(i int, c *serve.Config) {
		if i == 2 {
			c.DebugDelay = 40 * time.Millisecond // the hedging trigger
		}
	})
	rt, rts := startRouter(t, cluster, func(c *Config) {
		c.HedgeMax = 5 * time.Millisecond // hedge well before the slow node answers
	})

	type job struct {
		workload string
		elements int
		seed     int64
	}
	var jobs []job
	for _, w := range []string{"gcd", "vecadd", "relu", "vecxor", "vecand", "vecsub"} {
		for seed := int64(0); seed < 3; seed++ {
			jobs = append(jobs, job{w, 64 + int(seed)*64, seed})
		}
	}

	// Reference: the single node, sequential.
	want := map[job][]byte{}
	for _, j := range jobs {
		code, body, _ := postJSON(t, single[0].ts.URL, map[string]any{
			"workload": j.workload, "backend": "racer", "elements": j.elements, "seed": j.seed, "check": true,
		}, nil)
		if code != http.StatusOK {
			t.Fatalf("single %v: %d %s", j, code, body)
		}
		want[j] = statsOf(t, body)
	}

	// Routed: concurrent, so responses land in arbitrary order.
	var wg sync.WaitGroup
	got := make([][]byte, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			code, body, _ := postJSON(t, rts.URL, map[string]any{
				"workload": j.workload, "backend": "racer", "elements": j.elements, "seed": j.seed, "check": true,
			}, nil)
			if code != http.StatusOK {
				t.Errorf("routed %v: %d %s", j, code, body)
				return
			}
			got[i] = statsOf(t, body)
		}(i, j)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, j := range jobs {
		if !bytes.Equal(want[j], got[i]) {
			t.Fatalf("%v: routed stats diverge from single mpud:\nwant: %s\ngot:  %s", j, want[j], got[i])
		}
	}

	// The slow node guarantees some keys hit the hedge path; the parity
	// above therefore covered hedged requests too.
	hedges, _, _ := rt.Hedging()
	if hedges == 0 {
		t.Error("no request was hedged — the slow-node hedge path went unexercised")
	}
}

// TestRollingDrainZeroLost is the acceptance drain test: drain one node
// mid-load; the router notices via /healthz, re-routes (retrying any 503
// from the draining node), and the client-side accounting balances — every
// request is answered 200 or refused with a contract status, zero lost.
func TestRollingDrainZeroLost(t *testing.T) {
	cluster := startCluster(t, 3, nil)
	rt, rts := startRouter(t, cluster, nil)
	_ = rt

	const clients = 8
	const perClient = 30
	var (
		mu       sync.Mutex
		ok       int
		rejected int
		lost     int
	)
	var wg sync.WaitGroup
	drainOnce := sync.OnceFunc(func() { cluster[0].srv.Drain() })
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i == perClient/3 {
					drainOnce() // SIGTERM-equivalent mid-load on node0
				}
				code, body, _ := postJSON(t, rts.URL, map[string]any{
					"workload": "gcd", "backend": "racer", "elements": 64,
					"seed": int64(c*perClient + i), "check": true,
				}, nil)
				mu.Lock()
				switch code {
				case http.StatusOK:
					ok++
				case http.StatusServiceUnavailable, http.StatusTooManyRequests:
					rejected++
				default:
					lost++
					t.Errorf("client %d req %d: status %d: %s", c, i, code, body)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	total := clients * perClient
	if ok+rejected != total || lost != 0 {
		t.Fatalf("accounting does not balance: ok=%d rejected=%d lost=%d of %d", ok, rejected, lost, total)
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}

	// The router must have marked the drained node unready.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(rts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
			Nodes  []struct {
				Name  string `json:"name"`
				Ready bool   `json:"ready"`
			} `json:"nodes"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		drainedUnready := false
		for _, n := range h.Nodes {
			if n.Name == strings.TrimPrefix(cluster[0].ts.URL, "http://") && !n.Ready {
				drainedUnready = true
			}
		}
		if drainedUnready && h.Status == "degraded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never marked the drained node unready: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And traffic must still flow on the surviving nodes.
	code, body, _ := postJSON(t, rts.URL, map[string]any{
		"workload": "relu", "backend": "racer", "elements": 64, "seed": 1,
	}, nil)
	if code != http.StatusOK {
		t.Fatalf("post-drain request: %d %s", code, body)
	}
}

// TestRouterAffinity pins the sharding motivation: the same program always
// lands on the same node (cache affinity), different programs spread.
func TestRouterAffinity(t *testing.T) {
	cluster := startCluster(t, 3, nil)
	_, rts := startRouter(t, cluster, func(c *Config) {
		c.Hedge = false // keep the serving node deterministic
	})
	servedBy := map[string]map[string]bool{}
	for _, w := range []string{"gcd", "vecadd", "relu", "vecxor", "vecsub", "vecand", "vecmul", "abs"} {
		for seed := int64(0); seed < 3; seed++ {
			code, body, hdr := postJSON(t, rts.URL, map[string]any{
				"workload": w, "backend": "racer", "elements": 64, "seed": seed,
			}, nil)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", w, code, body)
			}
			node := hdr.Get("X-Mpurouter-Node")
			if node == "" {
				t.Fatal("response lacks the serving-node header")
			}
			if servedBy[w] == nil {
				servedBy[w] = map[string]bool{}
			}
			servedBy[w][node] = true
		}
	}
	nodesUsed := map[string]bool{}
	for w, nodes := range servedBy {
		if len(nodes) != 1 {
			t.Errorf("workload %s served by %d nodes %v — affinity broken", w, len(nodes), nodes)
		}
		for n := range nodes {
			nodesUsed[n] = true
		}
	}
	if len(nodesUsed) < 2 {
		t.Errorf("all programs landed on one node: %v", servedBy)
	}
}

// TestRouterNoReadyNodes pins the empty-cluster refusal: 503 + Retry-After.
func TestRouterNoReadyNodes(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)
	_, rts := startRouter(t, nil, func(c *Config) {
		c.Nodes = []string{dead.URL}
	})
	code, body, hdr := postJSON(t, rts.URL, map[string]any{
		"workload": "gcd", "backend": "racer", "elements": 64,
	}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestTenantSaturation pins the 429 contract: a tenant beyond its bounded
// admission queue is refused with Retry-After while other tenants proceed.
func TestTenantSaturation(t *testing.T) {
	cluster := startCluster(t, 1, func(i int, c *serve.Config) {
		c.DebugDelay = 150 * time.Millisecond // hold slots long enough to saturate
	})
	_, rts := startRouter(t, cluster, func(c *Config) {
		c.MaxInflight = 1
		c.TenantQueue = 1
		c.Hedge = false
	})
	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, hdr := postJSON(t, rts.URL, map[string]any{
				"workload": "gcd", "backend": "racer", "elements": 64, "seed": int64(i),
			}, map[string]string{"X-Tenant": "greedy"})
			codes[i] = code
			if code == http.StatusTooManyRequests && hdr.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	ok, saturated := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			saturated++
		default:
			t.Fatalf("unexpected statuses %v", codes)
		}
	}
	if ok == 0 || saturated == 0 {
		t.Fatalf("want both served and saturated, got %v", codes)
	}
}

// TestTenantCap: X-Tenant is unauthenticated, so a client can name a new
// tenant on every request. 5,000 distinct names leave at most
// maxUnlistedTenants + 1 tenant states and series per tenant family — the
// overflow shares tenant="other" — while a configured tenant keeps its own,
// and every request is still answered 200 or 429.
func TestTenantCap(t *testing.T) {
	cluster := startCluster(t, 1, nil)
	rt, rts := startRouter(t, cluster, func(c *Config) {
		c.Hedge = false
		c.Tenants = map[string]int{"listed": 2}
	})
	const names, workers = 5000, 8
	body := []byte(`{"workload":"vecadd","backend":"racer","elements":64}`)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < names; i += workers {
				tenant := fmt.Sprintf("tenant-%d", i)
				if i == names-1 {
					tenant = "listed"
				}
				hr, _ := http.NewRequest(http.MethodPost, rts.URL+"/v1/execute", bytes.NewReader(body))
				hr.Header.Set("X-Tenant", tenant)
				resp, err := http.DefaultClient.Do(hr)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("%s: status %d", tenant, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	rt.adm.mu.Lock()
	states := len(rt.adm.tenants)
	rt.adm.mu.Unlock()
	// The unlisted cap, "other", and the configured tenant.
	if limit := maxUnlistedTenants + 2; states > limit {
		t.Errorf("%d tenant states after %d distinct names, want at most %d", states, names, limit)
	}
	text := getText(t, rts.URL+"/metrics")
	for _, family := range []string{"mpurouter_tenant_granted_total{", "mpurouter_tenant_rejected_total{"} {
		if n := strings.Count(text, "\n"+family); n > maxUnlistedTenants+2 {
			t.Errorf("%d %s series, want at most %d", n, family, maxUnlistedTenants+2)
		}
		for _, tenant := range []string{otherTenant, "listed"} {
			if !strings.Contains(text, family+`tenant="`+tenant+`"}`) {
				t.Errorf("no %s series for tenant %q", family, tenant)
			}
		}
	}
}

// TestAutoscaleAdvisory drives the scraper against a fake node whose
// /healthz reports sustained queue depth and pins the advisory log + metric.
// The fake refuses every other path: a scrape round is one GET /healthz per
// node, and the node's /metrics is never read.
func TestAutoscaleAdvisory(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("the router requested %s from a node; its probe is /healthz only", r.URL.Path)
		}
		w.Write([]byte(`{"status":"ok","queue_depth":50,"inflight":10}`))
	}))
	t.Cleanup(fake.Close)
	var logs bytes.Buffer
	var logMu sync.Mutex
	rt, rts := startRouter(t, nil, func(c *Config) {
		c.Nodes = []string{fake.URL}
		c.AutoscaleDepth = 32
		c.AutoscaleSustain = 2
		c.ScrapeInterval = 10 * time.Millisecond
		c.Logs = writerFunc(func(p []byte) (int, error) {
			logMu.Lock()
			defer logMu.Unlock()
			return logs.Write(p)
		})
	})
	_ = rt
	deadline := time.Now().Add(5 * time.Second)
	for {
		logMu.Lock()
		advised := strings.Contains(logs.String(), `"msg":"autoscale-advice"`)
		logMu.Unlock()
		if advised {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no autoscale advisory after sustained depth; logs:\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if text := getText(t, rts.URL+"/metrics"); !strings.Contains(text, "mpurouter_autoscale_advisories_total{node=") {
		t.Fatalf("metrics missing the advisory counter:\n%s", text)
	}
	// One advisory per hot episode, not one per scrape: wait a few more
	// scrapes and confirm the count did not explode.
	time.Sleep(100 * time.Millisecond)
	logMu.Lock()
	n := strings.Count(logs.String(), `"msg":"autoscale-advice"`)
	logMu.Unlock()
	if n != 1 {
		t.Fatalf("advisory logged %d times for one sustained episode (want 1)", n)
	}
}

// TestRouterMetricsExposition pins the router's series catalog.
func TestRouterMetricsExposition(t *testing.T) {
	cluster := startCluster(t, 2, nil)
	_, rts := startRouter(t, cluster, nil)
	if code, body, _ := postJSON(t, rts.URL, map[string]any{
		"workload": "vecadd", "backend": "racer", "elements": 64,
	}, map[string]string{"X-Tenant": "alice"}); code != http.StatusOK {
		t.Fatalf("execute: %d %s", code, body)
	}
	text := getText(t, rts.URL+"/metrics")
	for _, series := range []string{
		`mpurouter_requests_total{code="200"} 1`,
		"mpurouter_inflight 0",
		"mpurouter_node_requests_total{node=",
		"mpurouter_retries_total 0",
		"mpurouter_hedges_total",
		"mpurouter_hedge_wins_total",
		"mpurouter_hedge_delay_seconds",
		"mpurouter_node_ready{node=",
		"mpurouter_node_load{node=",
		`mpurouter_tenant_granted_total{tenant="alice"} 1`,
		"mpurouter_request_seconds_count 1",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
