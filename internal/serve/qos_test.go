package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mpu/internal/isa"
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

// preemptedBody runs the preemption choreography against a single-machine
// pool: batchReq is admitted first and held by DebugDelay, a latency request
// arrives while the worker is busy, the batch job pauses at its first
// instruction boundary, the worker runs the latency request on its spare
// machine, and the batch job resumes in place. It returns the batch run's
// response body. The choreography depends on the latency request landing
// while the batch job is held, so it retries on a slow machine rather than
// flake.
func preemptedBody(t *testing.T, batchReq Request) []byte {
	t.Helper()
	latReq := Request{Workload: "vecadd", Backend: "racer", Elements: 64, Seed: 3}
	cfg := Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		DebugDelay: 300 * time.Millisecond,
	}
	for attempt := 0; attempt < 3; attempt++ {
		_, ts := newTestServer(t, cfg)
		var batchBody []byte
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := postExecuteClass(t, ts.URL, ClassBatch, batchReq)
			if code != http.StatusOK {
				t.Errorf("batch request: %d %s", code, body)
				return
			}
			batchBody = body
		}()
		time.Sleep(cfg.DebugDelay / 4)
		code, body := postExecuteClass(t, ts.URL, ClassLatency, latReq)
		wg.Wait()
		if code != http.StatusOK {
			t.Fatalf("latency request: %d %s", code, body)
		}
		if t.Failed() {
			t.FailNow()
		}
		if n, _ := strconv.Atoi(scrapeMetric(t, ts.URL, "mpud_preemptions_total")); n >= 1 {
			return batchBody
		}
		t.Logf("attempt %d: no preemption observed, retrying", attempt)
	}
	t.Fatal("no preemption observed in 3 attempts")
	return nil
}

// TestServePreemptParity is the serve-level acceptance bar: a batch run that
// was preempted at an instruction boundary, paused on its machine, and
// resumed after a latency request answers with byte-identical
// machine.Stats to the same request served uncontended. It runs under -race
// in CI (make race-short).
func TestServePreemptParity(t *testing.T) {
	batchReq := Request{Workload: "gcd", Backend: "racer", Elements: 512, Seed: 11, Check: true}
	want := soloStats(t, batchReq) // uncontended reference
	if got := decodeResponse(t, preemptedBody(t, batchReq)).Stats; !bytes.Equal(want, got) {
		t.Fatalf("preempted batch stats diverge from uncontended run:\nwant: %s\ngot:  %s", want, got)
	}
}

// TestServePreemptBinary holds a submitted binary to the same rule as a
// catalog kernel: a batch-class binary job with preloads and dumps pauses for
// a latency request and answers with a body byte-identical to its solo run,
// stats and dumps alike. It runs under -race in CI (make race-short).
func TestServePreemptBinary(t *testing.T) {
	prog, err := isa.Assemble(`
	COMPUTE rfh0 vrf0
	ADD r2 r0 r1
	MUL r3 r2 r1
	XOR r4 r3 r0
	COMPUTE_DONE
	COMPUTE rfh0 vrf0
	SUB r5 r4 r2
	OR r6 r5 r1
	COMPUTE_DONE
`)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		Binary:  base64.StdEncoding.EncodeToString(isa.EncodeProgram(prog)),
		Backend: "racer",
		Sets: []RegisterSet{
			{RFH: 0, VRF: 0, Reg: 0, Values: []uint64{3, 5, 7, 1 << 40}},
			{RFH: 0, VRF: 0, Reg: 1, Values: []uint64{10, 20, 30, 9}},
		},
	}
	for reg := 2; reg <= 6; reg++ {
		req.Dumps = append(req.Dumps, RegisterRef{RFH: 0, VRF: 0, Reg: reg})
	}
	_, ts := newTestServer(t, Config{Pools: onePool})
	code, want, _ := postExecute(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("reference: %d %s", code, want)
	}
	if got := preemptedBody(t, req); !bytes.Equal(want, got) {
		t.Fatalf("preempted binary run diverges from its solo run:\nwant: %s\ngot:  %s", want, got)
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

// TestParkedGaugesDrain pins the preemption accounting: after a paused job
// has resumed and answered, the parked gauge is back to zero, the preemption
// was counted, and the deleted families (parked bytes, restore time, parking
// lot spills) stay deleted.
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
		if n, _ := strconv.Atoi(scrapeMetric(t, ts.URL, "mpud_preemptions_total")); n < 1 {
			t.Logf("attempt %d: no preemption observed, retrying", attempt)
			continue
		}
		if got := scrapeMetric(t, ts.URL, "mpud_parked_jobs"); got != "0" {
			t.Fatalf("mpud_parked_jobs = %s after drain, want 0", got)
		}
		for _, gone := range []string{"mpud_parked_bytes", "mpud_restore_seconds_count", "mpud_preempt_spills_total"} {
			if got := scrapeMetric(t, ts.URL, gone); got != "" {
				t.Errorf("%s renders (%s); the family is deleted", gone, got)
			}
		}
		return
	}
	t.Fatal("no preemption observed in 3 attempts")
}

// TestServePreemptHandoff pins that a paused job waits on its own worker. On a
// two-worker pool, two gcd batch jobs pause for a burst of three latency
// requests, twice. Each worker runs the latency work on its spare machine and
// then resumes its own job on the machine it started with; the spare built at
// the first burst serves the second. Every answer is byte-identical to its
// solo reference. If a worker ran latency work on the machine its job is
// paused on, the latency job's Reset would wipe the paused run. It runs under
// -race in CI (make race-short).
func TestServePreemptHandoff(t *testing.T) {
	type job struct {
		class string
		req   Request
		want  []byte
	}
	var rounds [2][]*job
	for r := range rounds {
		for i := int64(0); i < 2; i++ {
			rounds[r] = append(rounds[r], &job{class: ClassBatch, req: Request{Workload: "gcd", Backend: "racer", Elements: 512, Seed: 11 + 2*int64(r) + i, Check: true}})
		}
		for i := int64(1); i <= 3; i++ {
			rounds[r] = append(rounds[r], &job{class: ClassLatency, req: Request{Workload: "vecadd", Backend: "racer", Elements: 64, Seed: 3*int64(r) + i, Check: true}})
		}
		for _, j := range rounds[r] {
			j.want = soloStats(t, j.req)
		}
	}

	// DebugDelay holds every batch before its run. The second batch job
	// starts a quarter of it after the first and the burst lands half-way
	// through the first hold, so both workers are busy and both jobs pause;
	// each latency request then holds its worker for another DebugDelay.
	cfg := Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 2}},
		DebugDelay: 300 * time.Millisecond,
	}
	machines := func(p *pool) (held, spares [2]*machine.Machine) {
		p.mu.Lock()
		defer p.mu.Unlock()
		for i, w := range p.workers {
			held[i], spares[i] = w.m, w.spare
		}
		return held, spares
	}
	for attempt := 0; attempt < 3; attempt++ {
		s, ts := newTestServer(t, cfg)
		p := s.pools[s.order[0]]
		started, _ := machines(p)
		var firstSpares [2]*machine.Machine
		ok := true
		for r, jobs := range rounds {
			var wg sync.WaitGroup
			bodies := make([][]byte, len(jobs))
			post := func(i int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					code, body := postExecuteClass(t, ts.URL, jobs[i].class, jobs[i].req)
					if code != http.StatusOK {
						t.Errorf("%s seed %d: %d %s", jobs[i].class, jobs[i].req.Seed, code, body)
						return
					}
					bodies[i] = body
				}()
			}
			post(0)
			time.Sleep(cfg.DebugDelay / 4)
			post(1)
			time.Sleep(cfg.DebugDelay / 4)
			for i := 2; i < len(jobs); i++ {
				post(i)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i, j := range jobs {
				if got := decodeResponse(t, bodies[i]).Stats; !bytes.Equal(j.want, got) {
					t.Fatalf("round %d: %s seed %d: stats diverge from the solo run:\nwant: %s\ngot:  %s", r, j.class, j.req.Seed, j.want, got)
				}
			}
			held, spares := machines(p)
			if held != started {
				t.Fatalf("round %d: workers hold %v, started on %v", r, held, started)
			}
			// Both jobs pause once per burst, and each worker then runs at
			// least one latency request: two preemptions per round.
			if n, _ := strconv.Atoi(scrapeMetric(t, ts.URL, "mpud_preemptions_total")); n != 2*(r+1) || spares[0] == nil || spares[1] == nil {
				t.Logf("attempt %d round %d: %d preemptions, spares %v, retrying", attempt, r, n, spares)
				ok = false
				break
			}
			if spares[0] == spares[1] || spares[0] == held[0] || spares[1] == held[1] {
				t.Fatalf("round %d: workers hold %v with spares %v; want four distinct machines", r, held, spares)
			}
			if r == 0 {
				firstSpares = spares
			} else if spares != firstSpares {
				t.Fatalf("spares %v after the second burst, %v after the first", spares, firstSpares)
			}
		}
		if ok {
			return
		}
	}
	t.Fatal("no two bursts with both jobs paused in 3 attempts")
}
