package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mpu/internal/machine"
)

func TestParseClass(t *testing.T) {
	for in, want := range map[string]string{
		"": ClassBatch, "batch": ClassBatch, "Batch": ClassBatch,
		"latency": ClassLatency, " LATENCY ": ClassLatency,
	} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{"turbo", "best-effort", "latency,batch"} {
		if _, err := ParseClass(in); err == nil {
			t.Errorf("ParseClass(%q) accepted", in)
		}
	}
}

// postExecuteClass is postExecute with an X-QoS header attached.
func postExecuteClass(t *testing.T, url, class string, req Request) (int, []byte) {
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
	if class != "" {
		hr.Header.Set("X-QoS", class)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestExecuteRejectsBadQoSHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postExecuteClass(t, ts.URL, "turbo", Request{
		Workload: "vecadd", Backend: "racer", Elements: 64,
	})
	if code != http.StatusBadRequest {
		t.Fatalf("X-QoS: turbo: status %d, want 400: %s", code, body)
	}
	if !strings.Contains(string(body), "QoS") {
		t.Fatalf("error does not name the header: %s", body)
	}
}

func scrapeMetric(t *testing.T, url, name string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			f := strings.Fields(line)
			return f[len(f)-1]
		}
	}
	return ""
}

// preemptOnce runs the preemption choreography against a single-machine pool:
// a batch request is admitted first and held by DebugDelay, a
// latency request arrives while the worker is busy, and (with preemption
// enabled) the batch job parks at its first ensemble boundary, the latency
// request runs, and the batch job is restored and resumed. Returns the batch
// run's stats and whether a preemption was recorded.
func preemptOnce(t *testing.T, cfg Config, batchReq, latReq Request) (batchStats []byte, preempted bool) {
	t.Helper()
	_, ts := newTestServer(t, cfg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, body := postExecuteClass(t, ts.URL, ClassBatch, batchReq)
		if code != http.StatusOK {
			t.Errorf("batch request: %d %s", code, body)
			return
		}
		batchStats = []byte(decodeResponse(t, body).Stats)
	}()
	// Land the latency request while the batch job is held before its run so
	// the worker is reliably busy with preemptible work.
	time.Sleep(cfg.DebugDelay / 4)
	code, body := postExecuteClass(t, ts.URL, ClassLatency, latReq)
	if code != http.StatusOK {
		t.Fatalf("latency request: %d %s", code, body)
	}
	wg.Wait()
	return batchStats, scrapeMetric(t, ts.URL, "mpud_preemptions_total") != "0"
}

// TestServePreemptParity is the serve-level acceptance bar: a batch run that
// was preempted at an ensemble boundary, snapshotted into the parking lot,
// and resumed after a latency request answers with byte-identical
// machine.Stats to the same request served uncontended. It runs under -race
// in CI (make race-short).
func TestServePreemptParity(t *testing.T) {
	batchReq := Request{Workload: "gcd", Backend: "racer", Elements: 512, Seed: 11, Check: true}
	latReq := Request{Workload: "vecadd", Backend: "racer", Elements: 64, Seed: 3}
	want := soloStats(t, batchReq) // uncontended reference

	cfg := Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		DebugDelay: 300 * time.Millisecond,
	}
	// The choreography depends on the latency request landing while the
	// batch job is held; retry on a slow machine rather than flake.
	for attempt := 0; attempt < 3; attempt++ {
		got, preempted := preemptOnce(t, cfg, batchReq, latReq)
		if t.Failed() {
			return
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("preempted batch stats diverge from uncontended run:\nwant: %s\ngot:  %s", want, got)
		}
		if preempted {
			return
		}
		t.Logf("attempt %d: no preemption observed, retrying", attempt)
	}
	t.Fatal("no preemption observed in 3 attempts")
}

// TestServeNoPreempt pins the opt-out: with NoPreempt the same choreography
// never parks a job (latency work waits for the batch run), and parity holds.
func TestServeNoPreempt(t *testing.T) {
	batchReq := Request{Workload: "gcd", Backend: "racer", Elements: 512, Seed: 11, Check: true}
	latReq := Request{Workload: "vecadd", Backend: "racer", Elements: 64, Seed: 3}
	want := soloStats(t, batchReq)

	got, preempted := preemptOnce(t, Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		DebugDelay: 150 * time.Millisecond,
		NoPreempt:  true,
	}, batchReq, latReq)
	if t.Failed() {
		return
	}
	if preempted {
		t.Fatal("NoPreempt server recorded a preemption")
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("batch stats diverge under NoPreempt:\nwant: %s\ngot:  %s", want, got)
	}
}

// TestClassCoalescingSeparation pins that a latency request never joins an
// open batch-class twin: identical requests in different classes execute as
// distinct batches.
func TestClassCoalescingSeparation(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		DebugDelay: 150 * time.Millisecond,
	})
	req := Request{Workload: "vecadd", Backend: "racer", Elements: 128, Seed: 5}
	var wg sync.WaitGroup
	sizes := make([]int, 2)
	for i, class := range []string{ClassBatch, ClassLatency} {
		wg.Add(1)
		go func(i int, class string) {
			defer wg.Done()
			code, body := postExecuteClass(t, ts.URL, class, req)
			if code != http.StatusOK {
				t.Errorf("%s: %d %s", class, code, body)
				return
			}
			sizes[i] = decodeResponse(t, body).BatchSize
		}(i, class)
	}
	wg.Wait()
	if sizes[0] != 1 || sizes[1] != 1 {
		t.Fatalf("cross-class coalescing: batch sizes %v, want [1 1]", sizes)
	}
}

// TestParkedGaugesDrain pins the parking-lot accounting: after a preempted
// job has resumed and answered, the parked gauges are back to zero and a
// restore was observed.
func TestParkedGaugesDrain(t *testing.T) {
	cfg := Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		DebugDelay: 300 * time.Millisecond,
	}
	batchReq := Request{Workload: "gcd", Backend: "racer", Elements: 512, Seed: 11}
	latReq := Request{Workload: "vecadd", Backend: "racer", Elements: 64, Seed: 3}
	for attempt := 0; attempt < 3; attempt++ {
		_, ts := newTestServer(t, cfg)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := postExecuteClass(t, ts.URL, ClassBatch, batchReq)
			if code != http.StatusOK {
				t.Errorf("batch request: %d %s", code, body)
			}
		}()
		time.Sleep(cfg.DebugDelay / 4)
		if code, body := postExecuteClass(t, ts.URL, ClassLatency, latReq); code != http.StatusOK {
			t.Fatalf("latency request: %d %s", code, body)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if scrapeMetric(t, ts.URL, "mpud_preemptions_total") == "0" {
			t.Logf("attempt %d: no preemption observed, retrying", attempt)
			continue
		}
		if got := scrapeMetric(t, ts.URL, "mpud_parked_jobs"); got != "0" {
			t.Fatalf("mpud_parked_jobs = %s after drain, want 0", got)
		}
		if got := scrapeMetric(t, ts.URL, "mpud_parked_bytes"); got != "0" {
			t.Fatalf("mpud_parked_bytes = %s after drain, want 0", got)
		}
		if got := scrapeMetric(t, ts.URL, "mpud_restore_seconds_count"); got == "0" || got == "" {
			t.Fatalf("mpud_restore_seconds_count = %q, want >= 1", got)
		}
		return
	}
	t.Fatal("no preemption observed in 3 attempts")
}
