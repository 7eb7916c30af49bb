package serve

import (
	"bytes"
	"encoding/base64"
	"net/http"
	"sync"
	"testing"
	"time"

	"mpu/internal/isa"
	"mpu/internal/machine"
)

// A batch is joinable until its result is sealed — while it is queued, held,
// running or paused — and not a moment longer. These tests pin the three
// edges of that span; the merge itself is what TestBatchingCoalesces and the
// batched leg of TestServeParityColdWarmBatchedConcurrent pin.

var onePool = []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}}

// soloStats is the reference a shared run must answer with: the request
// served alone on a fresh one-machine server.
func soloStats(t *testing.T, req Request) []byte {
	t.Helper()
	_, ts := newTestServer(t, Config{Pools: onePool})
	code, body, _ := postExecute(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("reference: %d %s", code, body)
	}
	return []byte(decodeResponse(t, body).Stats)
}

// waitInflight blocks until n requests are admitted and waiting on a result.
func waitInflight(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := s.metrics.inflight.Value()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d after 5s, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeJoinInFlight: a request identical to one a worker has already
// dequeued and is executing gets that run, not a second one.
func TestServeJoinInFlight(t *testing.T) {
	req := Request{Workload: "gcd", Backend: "racer", Elements: 512, Seed: 11, Check: true}
	want := soloStats(t, req)

	s, ts := newTestServer(t, Config{Pools: onePool, DebugDelay: 300 * time.Millisecond})
	first := make(chan []byte, 1)
	go func() {
		code, body, _ := postExecute(t, ts.URL, req)
		if code != http.StatusOK {
			t.Errorf("first: %d %s", code, body)
		}
		first <- body
	}()
	// Admitted on an idle pool means dequeued within microseconds; 50ms on,
	// the batch is long out of the queue and inside its (held) execution.
	waitInflight(t, s, 1)
	time.Sleep(50 * time.Millisecond)
	if d := s.pools["RACER/MPU"].depth(); d != 0 {
		t.Fatalf("queue depth %d: the first request is still queued, not executing", d)
	}
	code, second, _ := postExecute(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("second: %d %s", code, second)
	}
	firstBody := <-first
	if t.Failed() {
		return
	}
	for i, body := range [][]byte{firstBody, second} {
		r := decodeResponse(t, body)
		if r.BatchSize != 2 {
			t.Errorf("response %d: batch_size %d, want 2 (joined in flight)", i, r.BatchSize)
		}
		if !bytes.Equal(want, r.Stats) {
			t.Errorf("response %d: shared-run stats diverge from a solo run:\nwant: %s\ngot:  %s", i, want, r.Stats)
		}
	}
	if got := scrapeMetric(t, ts.URL, "mpud_batches_total"); got != "1" {
		t.Errorf("mpud_batches_total = %s, want 1: two requests, one run", got)
	}
}

// TestServeJoinParked: the preemptOnce choreography, plus a twin of the batch
// request sent while the job is paused. The twin rides on the paused job: one
// run, resumed once, both answers byte-equal to the uncontended reference.
func TestServeJoinParked(t *testing.T) {
	batchReq := Request{Workload: "gcd", Backend: "racer", Elements: 512, Seed: 11, Check: true}
	latReq := Request{Workload: "vecadd", Backend: "racer", Elements: 64, Seed: 3}
	want := soloStats(t, batchReq)

	// DebugDelay holds the batch job before its run (so the latency request
	// finds the worker busy) and then the latency request before its own —
	// which is how long the batch job stays parked.
	cfg := Config{Pools: onePool, DebugDelay: 300 * time.Millisecond}
	for attempt := 0; attempt < 3; attempt++ {
		_, ts := newTestServer(t, cfg)
		var wg sync.WaitGroup
		firstDone := make(chan struct{})
		bodies := make([][]byte, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(firstDone)
			code, body := postExecuteClass(t, ts.URL, ClassBatch, batchReq)
			if code != http.StatusOK {
				t.Errorf("batch request: %d %s", code, body)
				return
			}
			bodies[0] = body
		}()
		time.Sleep(cfg.DebugDelay / 4)
		go func() {
			defer wg.Done()
			if code, body := postExecuteClass(t, ts.URL, ClassLatency, latReq); code != http.StatusOK {
				t.Errorf("latency request: %d %s", code, body)
			}
		}()
		// Watch for the job to pause; if its answer comes first, this attempt
		// saw no preemption.
		answered := func() bool {
			select {
			case <-firstDone:
				return true
			default:
				return false
			}
		}
		parked := false
		for !parked && !answered() {
			time.Sleep(2 * time.Millisecond)
			parked = scrapeMetric(t, ts.URL, "mpud_parked_jobs") == "1"
		}
		if parked {
			code, body := postExecuteClass(t, ts.URL, ClassBatch, batchReq)
			if code != http.StatusOK {
				t.Fatalf("twin request: %d %s", code, body)
			}
			bodies[1] = body
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if !parked {
			t.Logf("attempt %d: the batch job never parked, retrying", attempt)
			continue
		}
		for i, body := range bodies {
			r := decodeResponse(t, body)
			if r.BatchSize != 2 {
				t.Errorf("response %d: batch_size %d, want 2 (joined while paused)", i, r.BatchSize)
			}
			if !bytes.Equal(want, r.Stats) {
				t.Errorf("response %d: stats diverge from the uncontended run:\nwant: %s\ngot:  %s", i, want, r.Stats)
			}
		}
		if got := scrapeMetric(t, ts.URL, "mpud_parked_jobs"); got != "0" {
			t.Errorf("mpud_parked_jobs = %s after both answered, want 0", got)
		}
		if got := scrapeMetric(t, ts.URL, "mpud_batches_total"); got != "2" {
			t.Errorf("mpud_batches_total = %s, want 2 (the batch job and the latency request)", got)
		}
		return
	}
	t.Fatal("no parked job observed in 3 attempts")
}

// TestServeLateArrivalRunsAgain: the span ends at the seal. A twin sent after
// the first response has been read finds no open batch — it must not attach
// to a finished one and wait for a result that was already fanned out — and
// runs on its own, whether the first ended in a result (sealed before the
// body was marshalled) or in an error (sealed in deliver).
func TestServeLateArrivalRunsAgain(t *testing.T) {
	prog, err := isa.Assemble("COMPUTE rfh0 vrf0\nADD r0 r1 r2\nCOMPUTE_DONE\n")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  Request
		code int
	}{
		{"result", Request{Workload: "relu", Backend: "racer", Elements: 128, Seed: 42}, http.StatusOK},
		// Admitted (the program is clean) and failed on the machine: the
		// preload names a register that does not exist.
		{"error", Request{
			Binary: base64.StdEncoding.EncodeToString(isa.EncodeProgram(prog)), Backend: "racer", DeadlineMS: 2000,
			Sets: []RegisterSet{{Reg: isa.NumRegs, Values: []uint64{1}}},
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Pools: onePool})
			var stats [][]byte
			for i := 0; i < 2; i++ {
				code, body, _ := postExecute(t, ts.URL, tc.req)
				if code != tc.code {
					t.Fatalf("request %d: status %d, want %d: %s", i, code, tc.code, body)
				}
				if code != http.StatusOK {
					continue
				}
				r := decodeResponse(t, body)
				if r.BatchSize != 1 {
					t.Errorf("request %d: batch_size %d, want 1", i, r.BatchSize)
				}
				stats = append(stats, r.Stats)
			}
			if len(stats) == 2 && !bytes.Equal(stats[0], stats[1]) {
				t.Errorf("the second run's stats diverge:\n%s\n%s", stats[0], stats[1])
			}
			if got := scrapeMetric(t, ts.URL, "mpud_batches_total"); got != "2" {
				t.Errorf("mpud_batches_total = %s, want 2: each request ran", got)
			}
		})
	}
}
