package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpu/internal/isa"
	"mpu/internal/lint"
	"mpu/internal/machine"
)

// newTestServer builds a Server + httptest front end and registers cleanup
// in the right order (HTTP layer first, then the pools).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(s.Close)
	t.Cleanup(ts.Close)
	return s, ts
}

func postExecute(t *testing.T, url string, req Request) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header
}

func decodeResponse(t *testing.T, body []byte) *Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	return &r
}

func TestExecuteWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := postExecute(t, ts.URL, Request{
		Workload: "gcd", Backend: "racer", Elements: 256, Seed: 7, Check: true,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	r := decodeResponse(t, body)
	if r.Workload != "gcd" || r.Backend != "RACER" || r.Mode != "MPU" {
		t.Fatalf("bad envelope: %s", body)
	}
	if r.CheckedLanes == 0 || r.Seconds <= 0 || r.Joules <= 0 {
		t.Fatalf("implausible result: %s", body)
	}
	var st machine.Stats
	if err := json.Unmarshal(r.Stats, &st); err != nil {
		t.Fatalf("stats do not decode: %v", err)
	}
	if st.Cycles <= 0 || st.Ensembles == 0 {
		t.Fatalf("implausible stats: %s", r.Stats)
	}
}

func TestExecuteValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  Request
		want int
	}{
		{"unknown workload", Request{Workload: "nope", Backend: "racer", Elements: 8}, 400},
		{"unknown backend", Request{Workload: "gcd", Backend: "tpu", Elements: 8}, 400},
		{"no pool for mode", Request{Workload: "gcd", Backend: "racer", Mode: "baseline", Elements: 8}, 400},
		{"zero elements", Request{Workload: "gcd", Backend: "racer"}, 400},
		{"element cap", Request{Workload: "gcd", Backend: "racer", Elements: 1 << 30}, 400},
		{"both workload and binary", Request{Workload: "gcd", Binary: "AAAA", Backend: "racer", Elements: 8}, 400},
		{"neither", Request{Backend: "racer"}, 400},
		{"bad base64", Request{Binary: "!!!", Backend: "racer"}, 400},
	}
	for _, tc := range cases {
		code, body, _ := postExecute(t, ts.URL, tc.req)
		if code != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, code, tc.want, body)
		}
	}
}

// TestExecuteBinary submits a raw assembled program with register preloads
// and dumps, round-tripping through base64 like a real client.
func TestExecuteBinary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	prog, err := isa.Assemble(`
	COMPUTE rfh0 vrf0
	ADD r0 r1 r2
	COMPUTE_DONE
`)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		Binary:  base64.StdEncoding.EncodeToString(isa.EncodeProgram(prog)),
		Backend: "racer",
		Sets: []RegisterSet{
			{RFH: 0, VRF: 0, Reg: 0, Values: []uint64{3, 5, 7}},
			{RFH: 0, VRF: 0, Reg: 1, Values: []uint64{10, 20, 30}},
		},
		Dumps: []RegisterRef{{RFH: 0, VRF: 0, Reg: 2}},
	}
	code, body, _ := postExecute(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	r := decodeResponse(t, body)
	if len(r.Dumps) != 1 {
		t.Fatalf("want 1 dump: %s", body)
	}
	got := r.Dumps[0].Values
	want := []uint64{13, 25, 37}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestExecuteBinaryLintPreflight pins that a structurally broken binary is
// refused at admission with the lint report, not run to a machine fault.
func TestExecuteBinaryLintPreflight(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// An instruction outside any ensemble: lint Error, machine fault.
	prog := isa.Program{{Op: isa.ADD, A: 0, B: 1, C: 2}}
	if err := prog.Validate(); err != nil {
		t.Skipf("program no longer encodes: %v", err)
	}
	req := Request{
		Binary:  base64.StdEncoding.EncodeToString(isa.EncodeProgram(prog)),
		Backend: "racer",
	}
	code, body, _ := postExecute(t, ts.URL, req)
	if code != http.StatusBadRequest {
		t.Fatalf("lint-broken binary got %d: %s", code, body)
	}
	if !strings.Contains(string(body), "lint") {
		t.Fatalf("error does not carry the lint report: %s", body)
	}
}

// TestExecuteBinaryCommPreflight pins the commlint admission contract: a
// base-lint-clean binary whose communication can never complete on the pool
// geometry is rejected 422 with the finding report — before it occupies a
// pool slot and parks a warm machine until the runtime deadlock detector
// fires.
func TestExecuteBinaryCommPreflight(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// RECV from a partner outside the single-MPU pool mesh: structurally
	// fine, statically guaranteed never to rendezvous.
	prog := isa.Program{isa.Recv(1)}
	req := Request{
		Binary:  base64.StdEncoding.EncodeToString(isa.EncodeProgram(prog)),
		Backend: "racer",
	}
	code, body, _ := postExecute(t, ts.URL, req)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("statically deadlocking binary got %d, want 422: %s", code, body)
	}
	var eb struct {
		Error    string         `json:"error"`
		Findings []lint.Finding `json:"findings"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("422 body is not the error envelope: %v\n%s", err, body)
	}
	if !strings.Contains(eb.Error, "commlint") {
		t.Errorf("error does not name the commlint preflight: %s", eb.Error)
	}
	found := false
	for _, f := range eb.Findings {
		if f.Check == "comm-partner-range" && f.Severity == lint.Error {
			found = true
		}
	}
	if !found {
		t.Errorf("422 body lacks the comm-partner-range finding: %s", body)
	}
}

// TestBackpressure pins the 503 + Retry-After contract: with a queue of one
// and a single busy worker, distinct requests beyond capacity are refused.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		QueueDepth: 1,
		DebugDelay: 100 * time.Millisecond, // hold the worker so the queue stays occupied
	})
	var wg sync.WaitGroup
	status := make([]int, 8)
	for i := range status {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds so nothing coalesces: each request needs a slot.
			code, _, hdr := postExecute(t, ts.URL, Request{
				Workload: "vecadd", Backend: "racer", Elements: 64, Seed: int64(i),
			})
			status[i] = code
			if code == http.StatusServiceUnavailable && hdr.Get("Retry-After") == "" {
				t.Errorf("503 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	ok, refused := 0, 0
	for _, c := range status {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Fatalf("unexpected status %v", status)
		}
	}
	if ok == 0 || refused == 0 {
		t.Fatalf("want both served and refused requests, got %v", status)
	}
	// The metrics plane must have counted the refusals.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "mpud_backpressure_total") {
		t.Fatalf("metrics missing backpressure counter:\n%s", buf.String())
	}
	_ = s
}

// TestBatchingCoalesces pins that identical requests arriving while their
// twin is in flight run once: every response reports the same batch size > 1
// and identical stats.
func TestBatchingCoalesces(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		DebugDelay: 150 * time.Millisecond,
	})
	const n = 4
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _ := postExecute(t, ts.URL, Request{
				Workload: "relu", Backend: "racer", Elements: 128, Seed: 42,
			})
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	sizes := map[int]bool{}
	var stats [][]byte
	for _, b := range bodies {
		r := decodeResponse(t, b)
		sizes[r.BatchSize] = true
		stats = append(stats, r.Stats)
	}
	// The first to arrive is held 150ms before it runs and the other three
	// arrive well inside that, so they join it in flight: one run, and every
	// waiter sees the same batch size.
	if len(sizes) != 1 || !sizes[n] {
		t.Fatalf("want every response batched at size %d, got sizes %v", n, sizes)
	}
	for i := 1; i < len(stats); i++ {
		if !bytes.Equal(stats[0], stats[i]) {
			t.Fatalf("batched stats diverge:\n%s\n%s", stats[0], stats[i])
		}
	}
}

// TestDeadlineWhileQueued pins the 504 path: a deadline shorter than the
// time the request's batch is held expires while the request waits.
func TestDeadlineWhileQueued(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		DebugDelay: 300 * time.Millisecond,
	})
	code, body, _ := postExecute(t, ts.URL, Request{
		Workload: "vecxor", Backend: "racer", Elements: 64, DeadlineMS: 20,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504): %s", code, body)
	}
}

// TestDrain pins the graceful-drain contract: requests admitted before
// Drain complete with 200, requests after are refused with 503, and
// /healthz flips to draining.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		DebugDelay: 200 * time.Millisecond,
	})
	done := make(chan int, 1)
	go func() {
		code, _, _ := postExecute(t, ts.URL, Request{
			Workload: "gcd", Backend: "racer", Elements: 256, Seed: 1,
		})
		done <- code
	}()
	waitInflight(t, s, 1) // admitted
	s.Drain()
	if code, _, _ := postExecute(t, ts.URL, Request{
		Workload: "gcd", Backend: "racer", Elements: 256, Seed: 2,
	}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain admission got %d (want 503)", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz got %d (want 503)", resp.StatusCode)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request dropped during drain: %d", code)
	}
}

func TestHealthzAndWorkloads(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	var h struct {
		Status     string   `json:"status"`
		Pools      []string `json:"pools"`
		QueueDepth *int64   `json:"queue_depth"` // pointers: present, not merely zero
		Inflight   *int64   `json:"inflight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Pools) != 1 || h.Pools[0] != "RACER/MPU" {
		t.Fatalf("bad healthz: %+v", h)
	}
	// The two load fields mpurouter's probe reads: present, and 0 when idle.
	if h.QueueDepth == nil || *h.QueueDepth != 0 || h.Inflight == nil || *h.Inflight != 0 {
		t.Fatalf("idle healthz must carry queue_depth 0 and inflight 0: %+v", h)
	}

	resp2, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var w struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&w); err != nil {
		t.Fatal(err)
	}
	if len(w.Workloads) != 21 {
		t.Fatalf("catalog lists %d workloads, want 21", len(w.Workloads))
	}
}

// TestMetricsExposition pins the catalog of series the ISSUE promises:
// queue depth, batch size and latency histograms, and backpressure.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, body, _ := postExecute(t, ts.URL, Request{
		Workload: "vecadd", Backend: "racer", Elements: 64,
	}); code != http.StatusOK {
		t.Fatalf("execute: %d %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, series := range []string{
		`mpud_requests_total{code="200"} 1`,
		`mpud_queue_depth{pool="RACER/MPU"} 0`,
		"mpud_batches_total 1",
		`mpud_batch_size_bucket{le="1"} 1`,
		"mpud_batch_size_count 1",
		"mpud_request_seconds_bucket",
		"mpud_request_seconds_count 1",
		"mpud_backpressure_total 0",
		"mpud_trace_hits_total",
		"mpud_scheduler_rounds_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// TestNodeLabel pins the multi-node scrape contract: with NodeID set the
// /metrics gauges carry a node label (names unchanged), /healthz and the
// request log name the node; without it the exposition is label-free so
// single-node dashboards are untouched.
func TestNodeLabel(t *testing.T) {
	var logs bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logs.Write(p)
	})
	_, ts := newTestServer(t, Config{NodeID: "node7", Logs: w})
	if code, body, _ := postExecute(t, ts.URL, Request{
		Workload: "vecadd", Backend: "racer", Elements: 64,
	}); code != http.StatusOK {
		t.Fatalf("execute: %d %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, series := range []string{
		`mpud_inflight{node="node7"} 0`,
		`mpud_queue_depth{node="node7",pool="RACER/MPU"} 0`,
		`mpud_requests_total{code="200"} 1`, // counters stay label-free
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q:\n%s", series, text)
		}
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var h struct {
		Node string `json:"node"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Node != "node7" {
		t.Errorf("healthz node = %q, want node7", h.Node)
	}
	mu.Lock()
	logged := logs.String()
	mu.Unlock()
	if !strings.Contains(logged, `"node":"node7"`) {
		t.Errorf("request log lacks the node field: %s", logged)
	}

	// Standalone daemons keep the historical label-free gauges.
	_, tsPlain := newTestServer(t, Config{})
	resp2, err := http.Get(tsPlain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf.Reset()
	buf.ReadFrom(resp2.Body)
	if !strings.Contains(buf.String(), "mpud_inflight 0") {
		t.Errorf("standalone exposition grew a label:\n%s", buf.String())
	}
}

func TestParsePoolSpecs(t *testing.T) {
	specs, err := ParsePoolSpecs("racer:mpu:2, mimdram:mpu ,dcache:baseline:1")
	if err != nil {
		t.Fatal(err)
	}
	want := []PoolSpec{
		{Backend: "racer", Mode: machine.ModeMPU, Size: 2},
		{Backend: "mimdram", Mode: machine.ModeMPU, Size: 1},
		{Backend: "dcache", Mode: machine.ModeBaseline, Size: 1},
	}
	if fmt.Sprint(specs) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", specs, want)
	}
	for _, bad := range []string{"", "racer", "racer:warp", "racer:mpu:0", "racer:mpu:2:9"} {
		if _, err := ParsePoolSpecs(bad); err == nil {
			t.Errorf("ParsePoolSpecs(%q) accepted", bad)
		}
	}
}

// TestRequestLogLines pins the structured-log schema.
func TestRequestLogLines(t *testing.T) {
	var logs bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logs.Write(p)
	})
	_, ts := newTestServer(t, Config{Logs: w})
	if code, body, _ := postExecute(t, ts.URL, Request{
		Workload: "vecadd", Backend: "racer", Elements: 64,
	}); code != http.StatusOK {
		t.Fatalf("execute: %d %s", code, body)
	}
	mu.Lock()
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("no log lines")
	}
	var e struct {
		TS       string  `json:"ts"`
		Msg      string  `json:"msg"`
		Pool     string  `json:"pool"`
		Workload string  `json:"workload"`
		Status   int     `json:"status"`
		MS       float64 `json:"ms"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("log line is not JSON: %q", lines[0])
	}
	if e.Msg != "request" || e.Status != 200 || e.Workload != "vecadd" || e.TS == "" || e.Pool != "RACER/MPU" {
		t.Fatalf("bad log entry: %q", lines[0])
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestServeOversizedSet sends a preload with one value more than a VRF has
// lanes: the request is refused with 400 and the server keeps serving.
func TestServeOversizedSet(t *testing.T) {
	prog, err := isa.Assemble("COMPUTE rfh0 vrf0\nADD r0 r1 r2\nCOMPUTE_DONE\n")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Pools: onePool})
	code, body, _ := postExecute(t, ts.URL, Request{
		Binary: base64.StdEncoding.EncodeToString(isa.EncodeProgram(prog)), Backend: "racer",
		Sets: []RegisterSet{{Reg: 0, Values: make([]uint64, 65)}},
	})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "65 values exceed 64 lanes") {
		t.Fatalf("oversized preload: status %d: %s", code, body)
	}
	if code, body, _ := postExecute(t, ts.URL, Request{Workload: "relu", Backend: "racer", Elements: 128, Seed: 1}); code != http.StatusOK {
		t.Fatalf("the next request: status %d: %s", code, body)
	}
}
