// Command mpurouter fronts a cluster of mpud nodes: it shards /v1/execute
// requests by consistent hashing on (backend, mode, program-hash) so
// identical programs land on the node whose caches already hold them, applies
// per-tenant weighted-fair admission, retries and hedges around slow or
// failed nodes, and tracks node health and load from one probe of each
// node's /healthz.
//
// Usage:
//
//	mpurouter -nodes http://h1:8080,http://h2:8080 [-addr :9100]
//	          [-candidates 2] [-retries 2] [-hedge] [-hedge-max 250ms]
//	          [-max-inflight 256] [-tenant-queue 128]
//	          [-tenants alice=3,bob=1] [-scrape 250ms]
//	          [-autoscale-depth 32] [-autoscale-sustain 8] [-quiet]
//	          [-pprof 127.0.0.1:6061]
//
// Endpoints mirror mpud: POST /v1/execute (with X-Tenant and X-No-Hedge
// request headers; responses carry X-Mpurouter-Node and
// X-Mpurouter-Attempts), GET /v1/workloads, GET /healthz (cluster view),
// GET /metrics (router series; node gauges are re-exported with node
// labels). The /v1/pipelines session plane passes through with session
// affinity: creates are placed by ring hash on the graph source, every
// later verb for a session ID is forwarded single-attempt (never hedged,
// never retried — advances are non-idempotent) to the node holding its
// machine, and GET /v1/pipelines merges every node's session list.
//
// -pprof mounts net/http/pprof on a listener of its own, never on the
// routing mux (off by default; keep it on loopback), so the routed path is
// profiled under real traffic:
// go tool pprof http://127.0.0.1:6061/debug/pprof/profile?seconds=30
//
// On SIGTERM/SIGINT the router drains: admission stops (503 + Retry-After),
// in-flight forwards complete, then the scraper stops. Node drains are
// delivered to nodes directly (signal their processes) — the router only
// observes them via /healthz and routes around.
//
// -smoke self-hosts a 2-node in-process cluster, routes requests through
// the full stack, verifies byte-identical stats from both a direct node hit
// and the routed path, and exits — the CI end-to-end check.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpu/internal/machine"
	"mpu/internal/obs"
	"mpu/internal/router"
	"mpu/internal/serve"
)

func main() {
	addr := flag.String("addr", ":9100", "listen address (host:port; :0 picks a free port)")
	nodes := flag.String("nodes", "", "comma-separated mpud base URLs (required)")
	candidates := flag.Int("candidates", 2, "candidate nodes per key (primary + spill/hedge set)")
	retries := flag.Int("retries", 2, "extra attempts after a 503 or transport failure")
	hedge := flag.Bool("hedge", true, "hedge slow requests with a speculative duplicate")
	hedgeMin := flag.Duration("hedge-min", time.Millisecond, "hedge trigger delay floor")
	hedgeMax := flag.Duration("hedge-max", 250*time.Millisecond, "hedge trigger delay ceiling")
	spill := flag.Float64("spill", 4, "load-gap hysteresis before a key spills off its primary node")
	maxInflight := flag.Int("max-inflight", 256, "concurrently forwarded requests across all tenants")
	tenantQueue := flag.Int("tenant-queue", 128, "per-tenant admission queue bound (429 beyond)")
	tenants := flag.String("tenants", "", "tenant weights: name=weight,... (unlisted tenants weigh 1)")
	scrape := flag.Duration("scrape", 250*time.Millisecond, "node health/metrics scrape interval")
	autoDepth := flag.Int("autoscale-depth", 32, "queue depth that starts an autoscale-advisory episode (0 disables)")
	autoSustain := flag.Int("autoscale-sustain", 8, "consecutive hot scrapes before the advisory fires")
	quiet := flag.Bool("quiet", false, "suppress JSON routing logs")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, on its own listener (empty = off)")
	smoke := flag.Bool("smoke", false, "self-test: in-process 2-node cluster, parity check, exit")
	flag.Parse()

	if err := run(*addr, *nodes, *candidates, *retries, *hedge, *hedgeMin, *hedgeMax,
		*spill, *maxInflight, *tenantQueue, *tenants, *scrape, *autoDepth, *autoSustain,
		*quiet, *pprofAddr, *smoke); err != nil {
		fmt.Fprintf(os.Stderr, "mpurouter: %v\n", err)
		os.Exit(1)
	}
}

func parseTenants(s string) (map[string]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("tenant entry %q: want name=weight", part)
		}
		w, err := strconv.Atoi(wStr)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenant entry %q: weight must be a positive integer", part)
		}
		out[name] = w
	}
	return out, nil
}

func run(addr, nodes string, candidates, retries int, hedge bool, hedgeMin, hedgeMax time.Duration,
	spill float64, maxInflight, tenantQueue int, tenantSpec string, scrape time.Duration,
	autoDepth, autoSustain int, quiet bool, pprofAddr string, smoke bool) error {
	if smoke {
		return smokeTest()
	}
	weights, err := parseTenants(tenantSpec)
	if err != nil {
		return err
	}
	var nodeList []string
	for _, n := range strings.Split(nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}
	var logs io.Writer = os.Stderr
	if quiet {
		logs = nil
	}
	rt, err := router.New(router.Config{
		Nodes:            nodeList,
		Candidates:       candidates,
		Retries:          retries,
		Hedge:            hedge,
		HedgeMin:         hedgeMin,
		HedgeMax:         hedgeMax,
		SpillLoad:        spill,
		MaxInflight:      maxInflight,
		TenantQueue:      tenantQueue,
		Tenants:          weights,
		ScrapeInterval:   scrape,
		AutoscaleDepth:   autoDepth,
		AutoscaleSustain: autoSustain,
		Logs:             logs,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Explicit timeouts on every edge, the shape repolint's
	// http-server-timeouts rule requires and mpud shares: a stalled client
	// must not pin a connection.
	hs := &http.Server{
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      3 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Printf("mpurouter: listening on %s (%d nodes)\n", ln.Addr(), len(nodeList))

	errCh := make(chan error, 2) // one send per server
	go func() { errCh <- hs.Serve(ln) }()

	if pprofAddr != "" {
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		ps := obs.ProfilerServer()
		defer ps.Close()
		fmt.Printf("mpurouter: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() { errCh <- ps.Serve(pln) }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("mpurouter: %s: draining\n", s)
	}

	rt.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	rt.Close()
	fmt.Println("mpurouter: drained")
	return nil
}

// smokeTest brings up two in-process mpud nodes and a router over them, then
// checks the routed path end to end: health, a routed execution whose stats
// are byte-identical to a direct node hit (the determinism contract the
// hedging policy rests on), and the metrics exposition.
func smokeTest() error {
	var nodeURLs []string
	var cleanups []func()
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}()
	for i := 0; i < 2; i++ {
		srv, err := serve.New(serve.Config{
			Pools:  []serve.PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
			NodeID: fmt.Sprintf("node%d", i),
		})
		if err != nil {
			return err
		}
		cleanups = append(cleanups, srv.Close)
		url, closeHTTP, err := hostLoopback(srv)
		if err != nil {
			return err
		}
		cleanups = append(cleanups, func() { closeHTTP() })
		nodeURLs = append(nodeURLs, url)
	}
	rt, err := router.New(router.Config{
		Nodes:          nodeURLs,
		Hedge:          true,
		ScrapeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	cleanups = append(cleanups, rt.Close)
	routerURL, closeHTTP, err := hostLoopback(rt)
	if err != nil {
		return err
	}
	cleanups = append(cleanups, func() { closeHTTP() })

	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(routerURL + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}

	body, _ := json.Marshal(map[string]any{
		"workload": "gcd", "backend": "racer", "elements": 256, "seed": 7, "check": true,
	})
	direct, err := executeStats(client, nodeURLs[0], body)
	if err != nil {
		return fmt.Errorf("direct node: %w", err)
	}
	for i := 0; i < 4; i++ {
		routed, err := executeStats(client, routerURL, body)
		if err != nil {
			return fmt.Errorf("routed request %d: %w", i, err)
		}
		if !bytes.Equal(direct, routed) {
			return fmt.Errorf("routed stats diverge from direct node:\n%s\nvs\n%s", direct, routed)
		}
	}

	resp, err = client.Get(routerURL + "/metrics")
	if err != nil {
		return err
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte(`mpurouter_requests_total{code="200"} 4`)) {
		return fmt.Errorf("metrics did not count the requests:\n%s", metrics)
	}
	fmt.Println("mpurouter: smoke ok")
	return nil
}

func executeStats(client *http.Client, base string, body []byte) ([]byte, error) {
	resp, err := client.Post(base+"/v1/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	var r struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(out, &r); err != nil || len(r.Stats) == 0 {
		return nil, fmt.Errorf("bad body %s", out)
	}
	return r.Stats, nil
}

func hostLoopback(h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
	}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), hs.Close, nil
}
