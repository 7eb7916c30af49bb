// Command mpuload offers load to mpud or mpurouter: /v1/execute requests
// cycled through a workload mix. By default it runs closed-loop: -c clients
// each issue a request, wait for the response, and issue the next, backing
// off by the server's Retry-After on 503/429 instead of hammering a full
// admission queue. With -rate it runs open-loop: arrivals follow a seeded
// Poisson process at that aggregate rate whatever the responses do, and each
// request is timed from the instant it was due. It prints the outcome totals
// and the latency percentiles of the 200s; with -strict it exits non-zero
// unless every request was answered and every arrival was sent.
//
// Usage:
//
//	mpuload [-url http://host:port | -nodes N] [-pools racer:mpu:2,...]
//	        [-c 64 | -rate 200] [-duration 10s] [-mix gcd:racer,relu:mimdram,...]
//	        [-elements 128] [-seeds 8] [-tenants 4] [-strict]
//
// With no -url, mpuload self-hosts its target on loopback ports: one
// in-process serve.Server, or with -nodes N that many behind an in-process
// router with mpurouter's defaults, so `make cluster-smoke` needs no
// external processes.
//
// mpuload generates load; it is not a benchmark. Numbers a claim may rest on
// come from `go run ./bench` (one schema, judged against the parent commit);
// docs/SERVE.md lists what holds each check the old study modes made.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpu/internal/exp"
	"mpu/internal/router"
	"mpu/internal/serve"
)

// opts mirrors the command-line flags.
type opts struct {
	url      string
	clients  int
	rate     float64
	duration time.Duration
	mixSpec  string
	elements int
	seeds    int
	tenants  int
	strict   bool
	nodes    int
	pools    string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "mpuload: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, host the target unless -url names
// one, offer the load, print the result to stdout.
func run(args []string, stdout io.Writer) error {
	var o opts
	fs := flag.NewFlagSet("mpuload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	fs.StringVar(&o.url, "url", "", "target base URL; empty self-hosts an in-process server (or cluster with -nodes)")
	fs.IntVar(&o.clients, "c", 64, "concurrent closed-loop clients (ignored with -rate)")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop Poisson arrival rate, requests/sec (0 = closed loop)")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "how long to offer load")
	fs.StringVar(&o.mixSpec, "mix", "gcd:racer,relu:mimdram,vecadd:dcache,vecxor:simdram",
		"request mix: workload:backend[:mode],... cycled per request")
	fs.IntVar(&o.elements, "elements", 128, "elements per request")
	fs.IntVar(&o.seeds, "seeds", 8, "distinct seed values cycled across requests (higher defeats batch coalescing)")
	fs.IntVar(&o.tenants, "tenants", 0, "spread requests across N tenant names via X-Tenant")
	fs.BoolVar(&o.strict, "strict", false, "exit non-zero on any dropped request, transport error or shed arrival")
	fs.IntVar(&o.nodes, "nodes", 0, "self-host an N-node cluster behind an in-process router (0 = plain single server)")
	fs.StringVar(&o.pools, "pools", "racer:mpu:2,mimdram:mpu:2,dcache:mpu:2,simdram:mpu:2",
		"self-hosted pools per node: backend:mode[:size],...")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := parseMix(o.mixSpec)
	if err != nil {
		return err
	}
	if o.url != "" && o.nodes > 0 {
		return errors.New("-nodes and -url are mutually exclusive")
	}
	if o.rate <= 0 && o.clients < 1 {
		return errors.New("-c must be at least 1")
	}
	if o.seeds <= 0 {
		o.seeds = 8
	}

	url := o.url
	if url == "" {
		var shutdown func()
		if url, shutdown, err = host(o.pools, o.nodes); err != nil {
			return err
		}
		defer shutdown()
	}
	g := newGenerator(o, mix, url)
	g.run()
	g.print(stdout)
	if o.strict {
		return g.strictErr()
	}
	return nil
}

type mixEntry struct {
	workload string
	backend  string
	mode     string
}

func parseMix(s string) ([]mixEntry, error) {
	var out []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		if len(f) < 2 || len(f) > 3 {
			return nil, fmt.Errorf("mix entry %q: want workload:backend[:mode]", part)
		}
		e := mixEntry{workload: f[0], backend: f[1], mode: "mpu"}
		if len(f) == 3 {
			e.mode = f[2]
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix %q", s)
	}
	return out, nil
}

// maxOutstanding bounds the open loop's requests in flight, so an overloaded
// target cannot grow the generator without limit. An arrival that finds the
// set full is shed and counted, never queued.
const maxOutstanding = 4096

// generator is one run: its configuration and, behind mu, its accounting.
type generator struct {
	o           opts
	mix         []mixEntry
	url         string
	client      *http.Client
	outstanding int // open-loop bound: maxOutstanding, smaller in tests

	mu        sync.Mutex
	requests  uint64 // every request sent: ok + refused + saturated + dropped
	ok        uint64
	refused   uint64    // 503: the admission queue's backpressure
	saturated uint64    // 429: the router's tenant budget
	dropped   uint64    // transport errors and every other status
	transport uint64    // the transport errors among dropped
	shed      uint64    // open-loop arrivals never sent: outstanding set full
	latencies []float64 // seconds, 200s only, from the due time
	lags      []float64 // seconds from due time to send, open loop only
	elapsed   time.Duration
}

func newGenerator(o opts, mix []mixEntry, url string) *generator {
	return &generator{
		o: o, mix: mix, url: url, outstanding: maxOutstanding,
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
}

// run offers load for the configured duration and returns once every
// request sent has been answered.
func (g *generator) run() {
	defer g.client.CloseIdleConnections()
	start := time.Now()
	stop := make(chan struct{})
	time.AfterFunc(g.o.duration, func() { close(stop) })
	if g.o.rate > 0 {
		g.openLoop(stop)
	} else {
		g.closedLoop(stop)
	}
	g.elapsed = time.Since(start)
}

// closedLoop runs -c clients back to back until stop closes.
func (g *generator) closedLoop(stop <-chan struct{}) {
	var wg sync.WaitGroup
	for c := 0; c < g.o.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stride by the client count so no two clients ever issue the
			// same (workload, seed) pair concurrently — overlapping
			// sequences would let the server coalesce what are meant to
			// be independent requests.
			for i := c; ; i += g.o.clients {
				select {
				case <-stop:
					return
				default:
				}
				status, retryAfter := g.issue(i, time.Now())
				if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
					// Honor backpressure: wait out the server's own
					// Retry-After hint instead of hammering a full (or
					// draining) admission queue.
					select {
					case <-stop:
						return
					case <-time.After(retryDelay(retryAfter)):
					}
				}
			}
		}()
	}
	wg.Wait()
}

// openLoop sends Poisson arrivals at the configured aggregate rate until
// stop closes; each arrival is an independent one-shot request, never a
// retry. The schedule is seeded, so two runs offer the same arrivals.
func (g *generator) openLoop(stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(1))
	sem := make(chan struct{}, g.outstanding)
	var wg sync.WaitGroup
	defer wg.Wait()
	next := time.Now()
	for i := 0; ; i++ {
		next = next.Add(time.Duration(rng.ExpFloat64() / g.o.rate * float64(time.Second)))
		due := next
		// A dispatcher that has fallen behind does not sleep: the timer
		// fires at once and the arrival's lateness shows up as send lag.
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				g.issue(i, due)
			}()
		default:
			g.mu.Lock()
			g.shed++
			g.mu.Unlock()
		}
	}
}

// issue sends request i and accounts for its outcome; it returns the status
// (0 on a transport error) and the Retry-After hint so the closed loop can
// back off. Latency runs from due, the instant the request should have gone
// out, not from the send: when the open loop's dispatcher or the arrival's
// goroutine runs late, that wait is queueing the offered load caused and
// belongs in the number. Closed-loop callers pass the send time itself.
func (g *generator) issue(i int, due time.Time) (int, string) {
	lag := time.Since(due).Seconds()
	e := g.mix[i%len(g.mix)]
	body, _ := json.Marshal(map[string]any{ // cannot fail: strings, ints and a bool
		"workload": e.workload, "backend": e.backend, "mode": e.mode,
		"elements": g.o.elements, "seed": int64(i % g.o.seeds), "check": true,
	})
	tenant := ""
	if g.o.tenants > 0 {
		tenant = fmt.Sprintf("tenant%d", i%g.o.tenants)
	}
	status, retryAfter, err := post(g.client, g.url+"/v1/execute", tenant, body)
	sec := time.Since(due).Seconds()

	g.mu.Lock()
	defer g.mu.Unlock()
	g.requests++
	if g.o.rate > 0 {
		g.lags = append(g.lags, lag)
	}
	switch {
	case err != nil:
		g.transport++
		g.dropped++
	case status == http.StatusOK:
		g.ok++
		g.latencies = append(g.latencies, sec)
	case status == http.StatusServiceUnavailable:
		g.refused++
	case status == http.StatusTooManyRequests:
		g.saturated++
	default:
		g.dropped++
	}
	return status, retryAfter
}

// retryDelay turns a Retry-After header into a backoff, bounded so a
// misbehaving hint cannot stall the loop.
func retryDelay(retryAfter string) time.Duration {
	d := 100 * time.Millisecond
	if sec, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && sec > 0 {
		d = time.Duration(sec) * time.Second
	}
	return min(d, 2*time.Second)
}

func post(client *http.Client, url, tenant string, body []byte) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// print writes the totals and the latency percentiles of the 200s; an
// open-loop run also reports the p90 of its own send lag, which says how
// far the generator was from applying the schedule it was given.
func (g *generator) print(w io.Writer) {
	fmt.Fprintf(w, "mpuload: %s: %d requests, %d ok (%.1f/s), %d refused, %d saturated, %d dropped, %d shed\n",
		g.elapsed.Round(time.Millisecond), g.requests, g.ok, float64(g.ok)/g.elapsed.Seconds(),
		g.refused, g.saturated, g.dropped, g.shed)
	pct := func(p float64) float64 { return exp.Percentile(g.latencies, p) * 1e3 }
	fmt.Fprintf(w, "mpuload: latency ms p50=%.2f p90=%.2f p99=%.2f max=%.2f", pct(0.50), pct(0.90), pct(0.99), pct(1.0))
	if g.o.rate > 0 {
		fmt.Fprintf(w, " send-lag p90=%.2f", exp.Percentile(g.lags, 0.90)*1e3)
	}
	fmt.Fprintln(w)
}

// strictErr is the -strict verdict. Refusals (503/429) are the backpressure
// contract working and never fail a run; a dropped request does, and so does
// a shed arrival, because then the offered rate was not the rate applied and
// the percentiles describe a lighter load than the one asked for.
func (g *generator) strictErr() error {
	if g.dropped > 0 || g.shed > 0 {
		return fmt.Errorf("strict: %d dropped (%d transport errors), %d arrivals shed", g.dropped, g.transport, g.shed)
	}
	return nil
}

// listen puts h behind a loopback http.Server with the timeouts repolint's
// http-server-timeouts rule requires and returns its base URL and a closer
// that waits for the serve loop to exit.
func listen(h http.Handler) (string, func(), error) {
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
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed after Close
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// host self-hosts the target: one serve.Server with the given pools, or with
// nodes > 0 that many behind a router configured as mpurouter is by default.
// It returns the base URL to send to and a shutdown to call once every
// request has been answered.
func host(pools string, nodes int) (url string, shutdown func(), err error) {
	specs, err := serve.ParsePoolSpecs(pools)
	if err != nil {
		return "", nil, err
	}
	var closers []func()
	shutdown = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			shutdown()
		}
	}()
	// serveOn mounts h on a loopback port; shutdown closes the listener
	// before h itself, as serve.Server.Close and Router.Close ask.
	serveOn := func(h http.Handler, closeHandler func()) (string, error) {
		closers = append(closers, closeHandler)
		url, closeHTTP, err := listen(h)
		if err != nil {
			return "", err
		}
		closers = append(closers, closeHTTP)
		return url, nil
	}

	var urls []string
	for i := 0; i < max(nodes, 1); i++ {
		cfg := serve.Config{Pools: specs}
		if nodes > 0 {
			cfg.NodeID = fmt.Sprintf("node%d", i)
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return "", nil, err
		}
		nodeURL, err := serveOn(srv, srv.Close)
		if err != nil {
			return "", nil, err
		}
		urls = append(urls, nodeURL)
	}
	if nodes == 0 {
		return urls[0], shutdown, nil
	}
	rt, err := router.New(router.Config{Nodes: urls, Hedge: true})
	if err != nil {
		return "", nil, err
	}
	if url, err = serveOn(rt, rt.Close); err != nil {
		return "", nil, err
	}
	return url, shutdown, nil
}
