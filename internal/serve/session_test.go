package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"

	"mpu/internal/machine"
)

// streamSource is the smallest resident pipeline: Split forwards each
// record's r0 to a Reduce whose accumulator (r48) persists across records —
// and, because sessions park between requests, across HTTP requests too.
const streamSource = `
src(Split) OUT -> IN total(Reduce)
'1' -> REGS src
'add' -> OP total
`

func doPipeline(t *testing.T, method, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes(), resp.Header
}

func createPipeline(t *testing.T, url string, req PipelineRequest) *PipelineResponse {
	t.Helper()
	code, body, _ := doPipeline(t, http.MethodPost, url+"/v1/pipelines", req)
	if code != http.StatusOK {
		t.Fatalf("create status %d: %s", code, body)
	}
	var pr PipelineResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	return &pr
}

func advancePipeline(t *testing.T, url, id string, req AdvanceRequest) *AdvanceResponse {
	t.Helper()
	code, body, _ := doPipeline(t, http.MethodPost, url+"/v1/pipelines/"+id, req)
	if code != http.StatusOK {
		t.Fatalf("advance status %d: %s", code, body)
	}
	var ar AdvanceResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return &ar
}

// TestPipelineSessionStreaming is the session plane's end-to-end contract:
// one compile, then records streamed across separate HTTP requests with the
// machine released between them, a resident accumulator surviving the
// park/restore cycle, and zero recompilation after the first request.
func TestPipelineSessionStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	pr := createPipeline(t, ts.URL, PipelineRequest{Source: streamSource, Backend: "racer"})
	if pr.MPUs != 2 || pr.Lanes == 0 || len(pr.Nodes) != 2 {
		t.Fatalf("bad placement: %+v", pr)
	}

	lanes := pr.Lanes
	record := func(base uint64) PipelineRecord {
		vals := make([]uint64, lanes)
		for i := range vals {
			vals[i] = base
		}
		return PipelineRecord{
			Sets:  []PipelineSet{{Node: "src", Reg: 0, Values: vals}},
			Dumps: []PipelineRef{{Node: "total", Reg: 48}},
		}
	}

	// Request 1: three records. The first pays trace recording; the session
	// summary therefore reports misses.
	ar := advancePipeline(t, ts.URL, pr.ID, AdvanceRequest{
		Records: []PipelineRecord{record(1), record(2), record(3)},
	})
	if ar.Summary.Records != 3 || ar.Summary.TotalRecords != 3 {
		t.Fatalf("summary %+v", ar.Summary)
	}
	if ar.Summary.TraceMisses == 0 {
		t.Fatalf("first request recorded no traces: %+v", ar.Summary)
	}
	if got := ar.Records[2].Dumps[0].Values[0]; got != 6 {
		t.Fatalf("accumulator after request 1 = %d, want 6", got)
	}

	// The machine is parked between requests: no session pins one.
	code, body, _ := doPipeline(t, http.MethodGet, ts.URL+"/v1/pipelines/"+pr.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Parked || st.Busy || st.SnapshotBytes == 0 || st.Records != 3 {
		t.Fatalf("status after request 1: %+v", st)
	}
	if got := scrapeMetric(t, ts.URL, "mpud_session_snapshot_bytes"); got != strconv.Itoa(st.SnapshotBytes) {
		t.Fatalf("mpud_session_snapshot_bytes = %s with one parked session of %d bytes", got, st.SnapshotBytes)
	}

	// Requests 2..4: the resident accumulator carries across the
	// park/restore boundary, and no record recompiles anything.
	want := uint64(6)
	for r := 2; r <= 4; r++ {
		ar = advancePipeline(t, ts.URL, pr.ID, AdvanceRequest{
			Records: []PipelineRecord{record(10), record(20)},
		})
		want += 30
		if ar.Summary.TraceMisses != 0 || ar.Summary.JITCompiles != 0 {
			t.Fatalf("request %d recompiled: %+v", r, ar.Summary)
		}
		if ar.Summary.TraceHits == 0 {
			t.Fatalf("request %d did not replay traces: %+v", r, ar.Summary)
		}
		if got := ar.Records[1].Dumps[0].Values[0]; got != want {
			t.Fatalf("accumulator after request %d = %d, want %d", r, got, want)
		}
	}
	if ar.Summary.TotalRecords != 9 {
		t.Fatalf("total records = %d, want 9", ar.Summary.TotalRecords)
	}

	// Close retires the session; the id stops resolving.
	code, body, _ = doPipeline(t, http.MethodDelete, ts.URL+"/v1/pipelines/"+pr.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("close status %d: %s", code, body)
	}
	code, _, _ = doPipeline(t, http.MethodGet, ts.URL+"/v1/pipelines/"+pr.ID, nil)
	if code != http.StatusNotFound {
		t.Fatalf("closed session still resolves: %d", code)
	}
	// The table's one delete also releases what the session held: a session
	// dropped any other way leaves its snapshot bytes counted forever.
	for _, g := range []string{"mpud_sessions", "mpud_session_snapshot_bytes"} {
		if got := scrapeMetric(t, ts.URL, g); got != "0" {
			t.Errorf("%s = %s after the only session closed, want 0", g, got)
		}
	}
}

// TestPipelineAdmission pins the error taxonomy: grammar and component
// errors are plain 400s, graphs rejected by machine-level verification
// (deadlocking composition, geometry overflow) are 422s carrying findings.
func TestPipelineAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	post := func(req PipelineRequest) (int, errorBody) {
		t.Helper()
		code, body, _ := doPipeline(t, http.MethodPost, ts.URL+"/v1/pipelines", req)
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("non-JSON error body %q: %v", body, err)
		}
		return code, eb
	}

	// Parse error: plain 400, no findings.
	code, eb := post(PipelineRequest{Source: "a(Map OUT -> ", Backend: "racer"})
	if code != http.StatusBadRequest || eb.Error == "" || len(eb.Findings) != 0 {
		t.Fatalf("parse error: %d %+v", code, eb)
	}

	// Component error: plain 400.
	code, eb = post(PipelineRequest{Source: "a(Nope) OUT -> IN b(Map)", Backend: "racer"})
	if code != http.StatusBadRequest || len(eb.Findings) != 0 {
		t.Fatalf("component error: %d %+v", code, eb)
	}

	// Mis-phased ring: the composition deadlocks, commlint proves it, and
	// the 422 carries the counterexample findings.
	deadlock := "a(EDStep) OUT -> IN b(EDStep)\nb OUT -> IN a\n'1' -> STEPS a\n'2' -> STEPS b"
	code, eb = post(PipelineRequest{Source: deadlock, Backend: "racer"})
	if code != http.StatusUnprocessableEntity || len(eb.Findings) == 0 {
		t.Fatalf("deadlocking ring: %d %+v", code, eb)
	}

	// Oversized graph: the per-request MPU cap turns into the geometry
	// finding, same 422 envelope.
	big := "n0(Split) OUT -> IN n1(Filter)\nn1 OUT -> IN n2(Filter)\nn2 OUT -> IN n3(Filter)"
	code, eb = post(PipelineRequest{Source: big, Backend: "racer", MaxMPUs: 2})
	if code != http.StatusUnprocessableEntity || len(eb.Findings) != 1 || eb.Findings[0].Check != "pipeline-geometry" {
		t.Fatalf("oversized graph: %d %+v", code, eb)
	}
}

// TestPipelineLimits pins the table bound (503 + Retry-After), unknown-id
// 404s, bad-record 400s, and drain semantics (creates refused, advances on
// admitted sessions keep flowing).
func TestPipelineLimits(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 1})
	pr := createPipeline(t, ts.URL, PipelineRequest{Source: streamSource, Backend: "racer"})

	code, body, hdr := doPipeline(t, http.MethodPost, ts.URL+"/v1/pipelines",
		PipelineRequest{Source: streamSource, Backend: "racer"})
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("full table: %d %s (Retry-After %q)", code, body, hdr.Get("Retry-After"))
	}

	code, _, _ = doPipeline(t, http.MethodPost, ts.URL+"/v1/pipelines/nope", AdvanceRequest{
		Records: []PipelineRecord{{}},
	})
	if code != http.StatusNotFound {
		t.Fatalf("unknown id advance: %d", code)
	}

	// A record naming an unknown node fails that request with a 400 but
	// leaves the session usable.
	code, body, _ = doPipeline(t, http.MethodPost, ts.URL+"/v1/pipelines/"+pr.ID, AdvanceRequest{
		Records: []PipelineRecord{{Sets: []PipelineSet{{Node: "ghost", Reg: 0, Values: []uint64{1}}}}},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown node: %d %s", code, body)
	}
	vals := make([]uint64, pr.Lanes)
	ar := advancePipeline(t, ts.URL, pr.ID, AdvanceRequest{
		Records: []PipelineRecord{{Sets: []PipelineSet{{Node: "src", Reg: 0, Values: vals}}}},
	})
	if ar.Summary.Records != 1 {
		t.Fatalf("session unusable after bad record: %+v", ar.Summary)
	}

	// Drain: new sessions are refused, admitted ones keep streaming.
	s.Drain()
	code, _, _ = doPipeline(t, http.MethodPost, ts.URL+"/v1/pipelines",
		PipelineRequest{Source: streamSource, Backend: "racer"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: %d", code)
	}
	ar = advancePipeline(t, ts.URL, pr.ID, AdvanceRequest{
		Records: []PipelineRecord{{Sets: []PipelineSet{{Node: "src", Reg: 0, Values: vals}}}},
	})
	if ar.Summary.Records != 1 {
		t.Fatalf("advance during drain: %+v", ar.Summary)
	}

	// The listing shows the one live session.
	code, body, _ = doPipeline(t, http.MethodGet, ts.URL+"/v1/pipelines", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var list struct {
		Sessions []*SessionStatus `json:"sessions"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != pr.ID {
		t.Fatalf("list = %s", body)
	}
}

// TestPipelineSessionParity: a record streamed through a parked-and-restored
// session answers with the same dump values as the same records streamed in
// one request — parking is invisible to results.
func TestPipelineSessionParity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	one := createPipeline(t, ts.URL, PipelineRequest{Source: streamSource, Backend: "racer"})
	two := createPipeline(t, ts.URL, PipelineRequest{Source: streamSource, Backend: "racer"})

	records := make([]PipelineRecord, 6)
	for i := range records {
		vals := make([]uint64, one.Lanes)
		for l := range vals {
			vals[l] = uint64(i*one.Lanes + l)
		}
		records[i] = PipelineRecord{
			Sets:  []PipelineSet{{Node: "src", Reg: 0, Values: vals}},
			Dumps: []PipelineRef{{Node: "total", Reg: 48}},
		}
	}

	// Session one: all six in one request. Session two: one per request.
	all := advancePipeline(t, ts.URL, one.ID, AdvanceRequest{Records: records})
	var split []RecordResult
	for _, r := range records {
		ar := advancePipeline(t, ts.URL, two.ID, AdvanceRequest{Records: []PipelineRecord{r}})
		split = append(split, ar.Records...)
	}
	for i := range records {
		a, _ := json.Marshal(all.Records[i].Dumps)
		b, _ := json.Marshal(split[i].Dumps)
		if !bytes.Equal(a, b) {
			t.Fatalf("record %d diverged across park boundaries:\none: %s\nsix: %s", i, a, b)
		}
	}
	if len(split) != len(records) {
		t.Fatalf("split stream answered %d records", len(split))
	}
}

// TestPipelineSessionLatencyBurst: a streaming session takes no pool capacity
// from /v1/execute and loses nothing to it. While one client advances a
// resident session back to back, a burst of latency-class requests is served
// in full — none refused, no advance failing — and the session is as warm
// after the burst as it was before.
func TestPipelineSessionLatencyBurst(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pools: []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 2}},
	})
	pr := createPipeline(t, ts.URL, PipelineRequest{Source: streamSource, Backend: "racer"})
	vals := make([]uint64, pr.Lanes)
	for i := range vals {
		vals[i] = 1
	}
	batch := AdvanceRequest{Records: make([]PipelineRecord, 8)}
	for i := range batch.Records {
		batch.Records[i] = PipelineRecord{Sets: []PipelineSet{{Node: "src", Reg: 0, Values: vals}}}
	}
	advancePipeline(t, ts.URL, pr.ID, batch) // the cold request records the traces

	var (
		streaming sync.WaitGroup
		first     sync.Once
		started   = make(chan struct{}) // closed after the loop's first advance, or its failure
		stop      = make(chan struct{})
	)
	streaming.Add(1)
	go func() {
		defer streaming.Done()
		defer first.Do(func() { close(started) })
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			code, body, _ := doPipeline(t, http.MethodPost, ts.URL+"/v1/pipelines/"+pr.ID, batch)
			if code != http.StatusOK {
				t.Errorf("advance %d during the burst: status %d: %s", n, code, body)
				return
			}
			first.Do(func() { close(started) })
		}
	}()
	<-started

	const clients, burst = 4, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < burst; i += clients {
				code, body := postExecuteClass(t, ts.URL, ClassLatency, Request{
					Workload: "vecadd", Backend: "racer", Elements: 128, Seed: int64(i), Check: true,
				})
				if code != http.StatusOK {
					t.Errorf("latency request %d: status %d: %s", i, code, body)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	streaming.Wait()

	if got := scrapeMetric(t, ts.URL, "mpud_backpressure_total"); got != "0" {
		t.Errorf("mpud_backpressure_total = %s after the burst, want 0", got)
	}
	ar := advancePipeline(t, ts.URL, pr.ID, batch)
	if ar.Summary.TraceMisses != 0 || ar.Summary.JITCompiles != 0 {
		t.Errorf("first advance after the burst recompiled: %+v", ar.Summary)
	}
}
