package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"mpu/internal/router"
	"mpu/internal/serve"
)

// The servers under test run in this process on loopback listeners, exactly
// as cmd/mpud and cmd/mpurouter mount them; clients reach them over TCP.

// host is one http.Server on a loopback port.
type host struct {
	hs   *http.Server
	done chan struct{}
	url  string
}

func listen(h http.Handler) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cannot bind a loopback listener: %w", err)
	}
	x := &host{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, WriteTimeout: 2 * time.Minute},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(x.done)
		_ = x.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return x, nil
}

// close stops the server. Every request has been answered by the time a
// workload closes its hosts; a connection a transport dialled and never used
// would still hold a graceful Shutdown for five seconds, so after a short
// grace the rest are closed outright.
func (x *host) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := x.hs.Shutdown(ctx); err != nil {
		_ = x.hs.Close() // nothing is in flight; the error only repeats the timeout
	}
	<-x.done
}

// node is one serve.Server behind a listener.
type node struct {
	*host
	srv *serve.Server
}

func startNode(cfg serve.Config) (*node, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	h, err := listen(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &node{host: h, srv: srv}, nil
}

func (n *node) close() {
	n.host.close()
	n.srv.Close()
}

// topology is the hosted system a workload sends to: nodes, and optionally a
// router in front of them. front is where clients connect.
type topology struct {
	nodes  []*node
	rt     *router.Router
	rtHost *host
	front  string
}

// startTopology hosts one node per pool spec, each configured as cfg with
// that pool. With routed set, a router.Router with cmd/mpurouter's defaults
// (hedging on, two candidates) fronts them.
func startTopology(routed bool, cfg serve.Config, pools ...string) (*topology, error) {
	t := &topology{}
	for i, p := range pools {
		specs, err := serve.ParsePoolSpecs(p)
		if err != nil {
			t.close()
			return nil, err
		}
		cfg.Pools = specs
		if routed {
			cfg.NodeID = "n" + strconv.Itoa(i)
		}
		n, err := startNode(cfg)
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	t.front = t.nodes[0].url
	if routed {
		urls := make([]string, len(t.nodes))
		for i, n := range t.nodes {
			urls[i] = n.url
		}
		rt, err := router.New(router.Config{Nodes: urls, Hedge: true, AutoscaleDepth: 32})
		if err != nil {
			t.close()
			return nil, err
		}
		t.rt = rt
		if t.rtHost, err = listen(rt); err != nil {
			t.close()
			return nil, err
		}
		t.front = t.rtHost.url
	}
	return t, nil
}

func (t *topology) close() {
	if t.rtHost != nil {
		t.rtHost.close()
	}
	if t.rt != nil {
		t.rt.Close()
	}
	for _, n := range t.nodes {
		n.close()
	}
}

// client is the benchmark's HTTP client: at most conns connections per host,
// kept alive.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do issues one request and returns the status, the whole body and the
// response headers.
func (c *client) do(method, url string, body []byte, qos string) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if qos != "" {
		req.Header.Set("X-QoS", qos)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header, err
}

// prom is a parsed Prometheus text exposition: series ("name" or
// "name{labels}") to value.
type prom map[string]float64

func parseProm(text string) prom {
	p := prom{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] += v
		}
	}
	return p
}

// scrape reads h's /metrics in-process, through the public handler but
// without a connection, so sampling adds no client to the load.
func scrape(h http.Handler) prom {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseProm(rec.Body.String())
}

// scrapeAll sums the expositions of several handlers.
func scrapeAll(nodes []*node) prom {
	sum := prom{}
	for _, n := range nodes {
		for k, v := range scrape(n.srv) {
			sum[k] += v
		}
	}
	return sum
}

// sum adds every series of the metric called name, whatever its labels.
func (p prom) sum(name string) float64 {
	var s float64
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			s += v
		}
	}
	return s
}

// max is the largest series of the metric called name.
func (p prom) max(name string) float64 {
	var m float64
	for series, v := range p {
		if (series == name || strings.HasPrefix(series, name+"{")) && v > m {
			m = v
		}
	}
	return m
}

// minus returns p - before, series by series: the counters' movement over a
// window.
func (p prom) minus(before prom) prom {
	d := prom{}
	for k, v := range p {
		d[k] = v - before[k]
	}
	return d
}

// meanMS is the mean of a Prometheus histogram, in milliseconds.
func (p prom) meanMS(name string) float64 {
	n := p.sum(name + "_count")
	if n == 0 {
		return 0
	}
	return p.sum(name+"_sum") / n * 1e3
}
