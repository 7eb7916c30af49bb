// Command mpud runs the MPU simulator as a long-lived execution service:
// warm machine pools per (backend, mode), a bounded admission queue with
// 503 backpressure, single-flight coalescing of identical requests,
// per-request deadlines, and an observability plane (/metrics, /healthz,
// JSON request logs).
//
// Usage:
//
//	mpud [-addr :8080] [-pools racer:mpu:2,mimdram:mpu:1] [-queue 64]
//	     [-deadline 30s] [-max-elements 1048576] [-node-id node0] [-quiet]
//	     [-max-sessions 8] [-pprof 127.0.0.1:6060]
//
// There is no worker flag: the daemon's parallelism is across requests, and a
// session machine picks its own schedule (docs/SERVE.md, "No worker knob").
//
// Coalescing needs no setting: a request identical to one that is queued,
// running or paused shares that run, and no request ever waits for a twin
// to arrive (docs/SERVE.md, "Batching").
//
// QoS: the X-QoS request header selects a class — "latency" (strict queue
// priority; preempts running batch jobs at instruction boundaries) or "batch"
// (the default). Every batch job can pause, a catalog kernel or a submitted
// binary alike: it waits on its worker's machine while that worker runs the
// latency work on a second machine, then resumes in place.
//
// Endpoints:
//
//	POST   /v1/execute        run a catalog workload or an assembled binary
//	GET    /v1/workloads      list the kernel catalog
//	POST   /v1/pipelines      compile an FBP graph into a persistent session
//	POST   /v1/pipelines/{id} stream records through a session
//	GET    /v1/pipelines[/{id}] list sessions / session status
//	DELETE /v1/pipelines/{id} close a session
//	GET    /healthz           liveness, pool inventory, queue depth + inflight (503 while draining)
//	GET    /metrics           Prometheus text exposition
//
// Pipeline sessions compile once and stream records across requests; a
// session owns one machine from its first advance to its close, so what
// sessions can hold is -max-sessions machines of at most 64 MPUs each.
//
// -pprof mounts net/http/pprof on a listener of its own (off by default;
// keep it on loopback), so a profile is read off the daemon under real
// traffic: go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
//
// On SIGTERM/SIGINT the daemon drains: admission stops (503), in-flight
// requests run to completion, then the pools shut down.
//
// -smoke starts the daemon on a random loopback port, exercises /healthz,
// one /v1/execute, and /metrics against itself, drains, and exits — the CI
// end-to-end check. -pipeline-smoke does the same for the session plane:
// create, stream across two requests (pinning zero recompilation on the
// second), reject a deadlocking graph with 422 findings, close, drain.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpu/internal/obs"
	"mpu/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "mpud: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, serve until SIGTERM/SIGINT (or until
// a self-test passes), drain, and print status lines to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mpud", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr, pools, nodeID, pprofAddr  string
		queue, maxElements, maxSessions int
		deadline                        time.Duration
		quiet, smoke, pipelineSmoke     bool
	)
	fs.StringVar(&addr, "addr", ":8080", "listen address (host:port; :0 picks a free port)")
	fs.StringVar(&pools, "pools", "racer:mpu:2", "warm pools: backend:mode[:size],... (modes: mpu, baseline)")
	fs.IntVar(&queue, "queue", 64, "admission queue depth per pool, in batches")
	fs.DurationVar(&deadline, "deadline", 30*time.Second, "default per-request deadline")
	fs.IntVar(&maxElements, "max-elements", 1<<20, "per-request element cap for workload runs")
	fs.StringVar(&nodeID, "node-id", "", "cluster node label on /metrics gauges and request logs (empty = standalone)")
	fs.BoolVar(&quiet, "quiet", false, "suppress JSON request logs")
	fs.IntVar(&maxSessions, "max-sessions", 8, "live pipeline session bound (/v1/pipelines)")
	fs.StringVar(&pprofAddr, "pprof", "", "serve net/http/pprof on this address, on its own listener (empty = off)")
	fs.BoolVar(&smoke, "smoke", false, "self-test: serve on a random port, run one request, drain, exit")
	fs.BoolVar(&pipelineSmoke, "pipeline-smoke", false, "self-test the session plane: create, stream, 422 check, close, drain, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	specs, err := serve.ParsePoolSpecs(pools)
	if err != nil {
		return err
	}
	var logs io.Writer = os.Stderr
	if quiet {
		logs = nil
	}
	srv, err := serve.New(serve.Config{
		Pools:           specs,
		QueueDepth:      queue,
		MaxElements:     maxElements,
		DefaultDeadline: deadline,
		NodeID:          nodeID,
		MaxSessions:     maxSessions,
		Logs:            logs,
	})
	if err != nil {
		return err
	}

	if smoke || pipelineSmoke {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Explicit timeouts on every edge: a slow or stalled client must not be
	// able to pin a connection (repolint's http-server-timeouts rule enforces
	// this shape).
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * deadline,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(stdout, "mpud: listening on %s (pools %s)\n", ln.Addr(), pools)

	errCh := make(chan error, 3) // one send per server and one from a self-test
	go func() { errCh <- hs.Serve(ln) }()

	if pprofAddr != "" {
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		ps := obs.ProfilerServer()
		defer ps.Close()
		fmt.Fprintf(stdout, "mpud: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() { errCh <- ps.Serve(pln) }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	if smoke || pipelineSmoke {
		test, name := smokeTest, "smoke"
		if pipelineSmoke {
			test, name = pipelineSmokeTest, "pipeline-smoke"
		}
		go func() {
			if err := test("http://"+ln.Addr().String(), stdout); err != nil {
				errCh <- fmt.Errorf("%s: %w", name, err)
				return
			}
			// Self-deliver the drain signal so the smoke run exercises the
			// same shutdown path as production.
			p, _ := os.FindProcess(os.Getpid())
			p.Signal(syscall.SIGTERM)
		}()
	}

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "mpud: %s: draining\n", s)
	}

	// Drain sequence: stop admitting, let the HTTP layer finish in-flight
	// handlers (every queued batch has one waiting), then stop the pools.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 2*deadline)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Close()
	fmt.Fprintln(stdout, "mpud: drained")
	return nil
}

// smokeTest is the end-to-end liveness exercise run by -smoke (and CI):
// healthz, one kernel execution with plausibility checks, and metrics.
func smokeTest(base string, stdout io.Writer) error {
	client := &http.Client{Timeout: 30 * time.Second}

	resp, err := client.Get(base + "/healthz")
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
	resp, err = client.Post(base+"/v1/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("execute: status %d: %s", resp.StatusCode, out)
	}
	var r struct {
		CheckedLanes int             `json:"checked_lanes"`
		Stats        json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return fmt.Errorf("execute: bad body %s: %w", out, err)
	}
	if r.CheckedLanes <= 0 || len(r.Stats) == 0 {
		return fmt.Errorf("execute: implausible result %s", out)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte(`mpud_requests_total{code="200"} 1`)) {
		return fmt.Errorf("metrics did not count the request:\n%s", metrics)
	}
	if !bytes.Contains(metrics, []byte("mpud_preemptions_total")) {
		return fmt.Errorf("metrics missing the QoS preemption plane:\n%s", metrics)
	}
	fmt.Fprintln(stdout, "mpud: smoke ok")
	return nil
}

// pipelineSmokeSource is the resident-accumulator stream the pipeline smoke
// drives: Split forwards each record's r0 into a Reduce whose r48 total
// persists across records and across the requests that carry them.
const pipelineSmokeSource = "src(Split) OUT -> IN total(Reduce)\n'1' -> REGS src\n'add' -> OP total\n"

// pipelineSmokeTest is the session plane's end-to-end exercise run by
// -pipeline-smoke (and CI): compile once, stream records across two
// requests (the second must replay warm traces with zero recompilation),
// verify the 422 admission path on a deadlocking graph, and close.
func pipelineSmokeTest(base string, stdout io.Writer) error {
	client := &http.Client{Timeout: 30 * time.Second}
	post := func(path string, req, resp any) (int, []byte, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return 0, nil, err
		}
		r, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		out, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if resp != nil && r.StatusCode == http.StatusOK {
			if err := json.Unmarshal(out, resp); err != nil {
				return r.StatusCode, out, err
			}
		}
		return r.StatusCode, out, nil
	}

	var created struct {
		ID    string `json:"id"`
		MPUs  int    `json:"mpus"`
		Lanes int    `json:"lanes"`
	}
	code, out, err := post("/v1/pipelines", map[string]any{
		"source": pipelineSmokeSource, "backend": "racer",
	}, &created)
	if err != nil {
		return err
	}
	if code != http.StatusOK || created.ID == "" || created.MPUs != 2 {
		return fmt.Errorf("create: status %d: %s", code, out)
	}

	vals := make([]uint64, created.Lanes)
	for i := range vals {
		vals[i] = 2
	}
	record := map[string]any{
		"sets":  []map[string]any{{"node": "src", "reg": 0, "values": vals}},
		"dumps": []map[string]any{{"node": "total", "reg": 48}},
	}
	type advance struct {
		Records []struct {
			Dumps []struct {
				Values []uint64 `json:"values"`
			} `json:"dumps"`
		} `json:"records"`
		Summary struct {
			Records     int    `json:"records"`
			TraceMisses uint64 `json:"trace_misses"`
			JITCompiles uint64 `json:"jit_compiles"`
			TraceHits   uint64 `json:"trace_hits"`
		} `json:"summary"`
	}
	var a1, a2 advance
	code, out, err = post("/v1/pipelines/"+created.ID, map[string]any{
		"records": []any{record, record},
	}, &a1)
	if err != nil {
		return err
	}
	if code != http.StatusOK || a1.Summary.Records != 2 {
		return fmt.Errorf("advance 1: status %d: %s", code, out)
	}
	code, out, err = post("/v1/pipelines/"+created.ID, map[string]any{
		"records": []any{record},
	}, &a2)
	if err != nil {
		return err
	}
	if code != http.StatusOK || a2.Summary.Records != 1 {
		return fmt.Errorf("advance 2: status %d: %s", code, out)
	}
	if a2.Summary.TraceMisses != 0 || a2.Summary.JITCompiles != 0 {
		return fmt.Errorf("advance 2 recompiled (misses %d, compiles %d) — the session did not stay warm across requests",
			a2.Summary.TraceMisses, a2.Summary.JITCompiles)
	}
	if got := a2.Records[0].Dumps[0].Values[0]; got != 6 {
		return fmt.Errorf("accumulator = %d after 3 records of 2s, want 6", got)
	}

	// Admission: a mis-phased ring must be refused statically with findings.
	code, out, err = post("/v1/pipelines", map[string]any{
		"source":  "a(EDStep) OUT -> IN b(EDStep)\nb OUT -> IN a\n'1' -> STEPS a\n'2' -> STEPS b",
		"backend": "racer",
	}, nil)
	if err != nil {
		return err
	}
	var eb struct {
		Findings []json.RawMessage `json:"findings"`
	}
	if code != http.StatusUnprocessableEntity || json.Unmarshal(out, &eb) != nil || len(eb.Findings) == 0 {
		return fmt.Errorf("deadlocking graph: status %d: %s", code, out)
	}

	req, err := http.NewRequest(http.MethodDelete, base+"/v1/pipelines/"+created.ID, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("close: status %d", resp.StatusCode)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("mpud_session_records_total 3\n")) ||
		!bytes.Contains(metrics, []byte("mpud_sessions 0\n")) {
		return fmt.Errorf("metrics did not account the session:\n%s", metrics)
	}
	fmt.Fprintln(stdout, "mpud: pipeline-smoke ok")
	return nil
}
