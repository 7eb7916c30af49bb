package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mpu/internal/machine"
)

// streamSource is the smallest resident pipeline: Split forwards each
// record's r0 to a Reduce whose accumulator (r48) persists across records —
// and, because the session keeps its machine, across HTTP requests too.
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
// one compile, then records streamed across separate HTTP requests, a
// resident accumulator carrying from one to the next, and zero recompilation
// after the first request.
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

	// Between requests the session is idle and has counted its records.
	code, body, _ := doPipeline(t, http.MethodGet, ts.URL+"/v1/pipelines/"+pr.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Busy || st.Records != 3 {
		t.Fatalf("status after request 1: %+v", st)
	}

	// Requests 2..4: the resident accumulator carries across the request
	// boundary, and no record recompiles anything.
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
	// The table's one delete is also the gauge's one decrement.
	if got := scrapeMetric(t, ts.URL, "mpud_sessions"); got != "0" {
		t.Errorf("mpud_sessions = %s after the only session closed, want 0", got)
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

// TestPipelineSessionParity: records streamed one per request answer with
// the same dump values and the same machine.Stats bytes as the same records
// streamed in one request — request boundaries are invisible to results.
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
	all := advancePipeline(t, ts.URL, one.ID, AdvanceRequest{Records: records, Stats: true})
	var split []RecordResult
	for _, r := range records {
		ar := advancePipeline(t, ts.URL, two.ID, AdvanceRequest{Records: []PipelineRecord{r}, Stats: true})
		split = append(split, ar.Records...)
	}
	if len(split) != len(records) {
		t.Fatalf("split stream answered %d records", len(split))
	}
	for i := range records {
		a, _ := json.Marshal(all.Records[i].Dumps)
		b, _ := json.Marshal(split[i].Dumps)
		if !bytes.Equal(a, b) {
			t.Fatalf("record %d diverged across request boundaries:\none: %s\nsix: %s", i, a, b)
		}
		if a, b := all.Records[i].Stats, split[i].Stats; len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("record %d stats diverged across request boundaries:\none: %s\nsix: %s", i, a, b)
		}
	}
}

// TestPipelineSessionApplied: an advance that fails at record k says how many
// records before it were applied, the session counts exactly those, and a
// client that resends from the failing record on ends where an undisturbed
// stream does.
func TestPipelineSessionApplied(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	whole := createPipeline(t, ts.URL, PipelineRequest{Source: streamSource, Backend: "racer"})
	broken := createPipeline(t, ts.URL, PipelineRequest{Source: streamSource, Backend: "racer"})
	record := func(node string, base uint64) PipelineRecord {
		vals := make([]uint64, whole.Lanes)
		for i := range vals {
			vals[i] = base + uint64(i)
		}
		return PipelineRecord{
			Sets:  []PipelineSet{{Node: node, Reg: 0, Values: vals}},
			Dumps: []PipelineRef{{Node: "total", Reg: 48}},
		}
	}
	good := []PipelineRecord{record("src", 1), record("src", 20), record("src", 300)}
	want, _ := json.Marshal(advancePipeline(t, ts.URL, whole.ID, AdvanceRequest{Records: good}).Records[2].Dumps)

	code, body, _ := doPipeline(t, http.MethodPost, ts.URL+"/v1/pipelines/"+broken.ID, AdvanceRequest{
		Records: []PipelineRecord{good[0], record("ghost", 20), good[2]},
	})
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	if code != http.StatusBadRequest || eb.Applied == nil || *eb.Applied != 1 {
		t.Fatalf("advance with a bad 2nd record: %d %s, want 400 with \"applied\":1", code, body)
	}
	var st SessionStatus
	_, body, _ = doPipeline(t, http.MethodGet, ts.URL+"/v1/pipelines/"+broken.ID, nil)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.Busy {
		t.Fatalf("status after the failed advance: %+v, want 1 record and not busy", st)
	}
	ar := advancePipeline(t, ts.URL, broken.ID, AdvanceRequest{Records: good[1:]})
	if got, _ := json.Marshal(ar.Records[1].Dumps); !bytes.Equal(got, want) {
		t.Fatalf("resent stream ends on %s, the undisturbed one on %s", got, want)
	}
	if ar.Summary.TotalRecords != 3 {
		t.Fatalf("total records = %d after the resend, want 3", ar.Summary.TotalRecords)
	}

	// Errors that stop before any record carry no applied count.
	_, body, _ = doPipeline(t, http.MethodPost, ts.URL+"/v1/pipelines/"+broken.ID, AdvanceRequest{})
	if bytes.Contains(body, []byte("applied")) {
		t.Fatalf("an empty advance reports applied: %s", body)
	}
}

// TestPipelineSessionUnknownID: an advance to an id that does not resolve is
// refused before its body is read — a body that would not even parse still
// answers 404, not 400.
func TestPipelineSessionUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/pipelines/nope", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id with an unparsable body: %d, want 404", resp.StatusCode)
	}
}

// etlSession creates an etl.fbp session on s and builds an advance of eight
// records, returning the session id, the advance and what one advance adds
// to each lane of the total. The caller sends the first (warm) advance.
func etlSession(t *testing.T, s *Server) (string, *AdvanceRequest, []uint64) {
	t.Helper()
	src, err := os.ReadFile("../../examples/pipelines/etl.fbp")
	if err != nil {
		t.Fatal(err)
	}
	pr, status, err := s.createSession(&PipelineRequest{Source: string(src), Backend: "racer"})
	if err != nil {
		t.Fatalf("create: %d %v", status, err)
	}
	const records = 8
	req := &AdvanceRequest{Records: make([]PipelineRecord, records)}
	fold := make([]uint64, pr.Lanes)
	for r := range req.Records {
		r0, r1 := make([]uint64, pr.Lanes), make([]uint64, pr.Lanes)
		for l := range r0 {
			r0[l], r1[l] = uint64(r*pr.Lanes+l), uint64(3*l+r)
			fold[l] += max(r0[l]+r1[l], r0[l]^r1[l])
		}
		req.Records[r].Sets = []PipelineSet{{Node: "src", Reg: 0, Values: r0}, {Node: "src", Reg: 1, Values: r1}}
	}
	req.Records[records-1].Dumps = []PipelineRef{{Node: "total", Reg: 48}}
	return pr.ID, req, fold
}

// residentAdvanceBudget bounds what one warm eight-record etl advance may
// allocate: 1.5 times the 7.2 KB it measures, a twenty-fifth of the six-MPU
// machine's 270 KB snapshot.
const residentAdvanceBudget = 10824

// TestPipelineSessionResident: a session's machine stays where it is between
// advances, so a warm advance allocates what its records and response need
// and nothing proportional to the machine.
func TestPipelineSessionResident(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	id, req, fold := etlSession(t, s)
	const advances = 50
	if _, status, err := s.advanceSession(id, req); err != nil { // warm: records traces, compiles
		t.Fatalf("warm advance: %d %v", status, err)
	}
	var before, after runtime.MemStats
	var last *AdvanceResponse
	runtime.ReadMemStats(&before)
	for i := 0; i < advances; i++ {
		ar, status, err := s.advanceSession(id, req)
		if err != nil {
			t.Fatalf("advance %d: %d %v", i, status, err)
		}
		if ar.Summary.TraceMisses != 0 || ar.Summary.JITCompiles != 0 {
			t.Fatalf("advance %d recompiled: %+v", i, ar.Summary)
		}
		last = ar
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / advances
	t.Logf("a warm advance of %d records allocates %d bytes", len(req.Records), per)
	if per > residentAdvanceBudget {
		t.Errorf("a warm advance of %d records allocates %d bytes, want ≤ %d", len(req.Records), per, residentAdvanceBudget)
	}
	got := last.Records[len(req.Records)-1].Dumps[0].Values
	for l := range fold {
		if want := fold[l] * (advances + 1); got[l] != want {
			t.Fatalf("lane %d: total %d after %d advances, scalar fold %d", l, got[l], advances+1, want)
		}
	}
}

// TestPipelineSessionInline: a session machine with short phases runs them
// on the advancing goroutine. A poller samples the goroutine count
// throughout 50 warm advances of the six-MPU etl pipeline; beyond the poller
// itself it never sees one more than before the advances began, so no
// advance fans its barrier phases out.
func TestPipelineSessionInline(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	id, req, _ := etlSession(t, s)
	if base, peak := peakGoroutines(t, s, id, req, 50); peak > base+1 {
		t.Fatalf("goroutines peaked at %d during advances, %d before them: an advance fanned out", peak, base)
	}
}

// TestPipelineSessionFanOut: a session machine whose first record does
// enough work per rendezvous runs later phases on one goroutine per CPU —
// here the eight-MPU edit-distance ring and the four-MPU llmencode graph.
func TestPipelineSessionFanOut(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one CPU: every machine runs inline")
	}
	s, _ := newTestServer(t, Config{})
	for _, name := range []string{"editdistance_ring", "llmencode"} {
		src, err := os.ReadFile("../../examples/pipelines/" + name + ".fbp")
		if err != nil {
			t.Fatal(err)
		}
		pr, status, err := s.createSession(&PipelineRequest{Source: string(src), Backend: "racer"})
		if err != nil {
			t.Fatalf("%s: create: %d %v", name, status, err)
		}
		req := &AdvanceRequest{Records: []PipelineRecord{{}}}
		if base, peak := peakGoroutines(t, s, pr.ID, req, 1); peak <= base+1 {
			t.Errorf("%s: goroutines peaked at %d during an advance, %d before it: the machine did not fan out", name, peak, base)
		}
	}
}

// peakGoroutines makes one warm advance, then reports the goroutine count
// before n more and the most a polling goroutine saw during them.
func peakGoroutines(t *testing.T, s *Server, id string, req *AdvanceRequest, n int) (base, peak int) {
	t.Helper()
	if _, status, err := s.advanceSession(id, req); err != nil {
		t.Fatalf("warm advance: %d %v", status, err)
	}
	base = runtime.NumGoroutine()
	var done atomic.Bool
	defer done.Store(true) // stops the poller when an advance fails
	peaks := make(chan int, 1)
	go func() {
		n := 0
		for !done.Load() {
			n = max(n, runtime.NumGoroutine())
			runtime.Gosched()
		}
		peaks <- n
	}()
	for i := 0; i < n; i++ {
		if _, status, err := s.advanceSession(id, req); err != nil {
			t.Fatalf("advance %d: %d %v", i, status, err)
		}
	}
	done.Store(true)
	return base, <-peaks
}

// TestPipelineSessionsConcurrent: sessions advanced side by side — with a
// reader polling the listing and every status, and a second writer racing
// one session's owner — keep their machines apart. A contended advance
// answers 409 (nothing applied) or 200 (applied whole), so each session's
// final total is the fold of exactly the advances that answered 200.
func TestPipelineSessionsConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const sessions, rounds = 4, 25
	var ids [sessions]string
	lanes := 0
	for i := range ids {
		pr := createPipeline(t, ts.URL, PipelineRequest{Source: streamSource, Backend: "racer"})
		ids[i], lanes = pr.ID, pr.Lanes
	}
	advance := func(base uint64) AdvanceRequest {
		vals := make([]uint64, lanes)
		for l := range vals {
			vals[l] = base
		}
		rec := PipelineRecord{Sets: []PipelineSet{{Node: "src", Reg: 0, Values: vals}}}
		return AdvanceRequest{Records: []PipelineRecord{rec, rec}}
	}
	// writer advances session i `rounds` times and returns what it applied.
	writer := func(i int, base uint64) (applied uint64) {
		for n := 0; n < rounds; n++ {
			code, body, _ := doPipeline(t, http.MethodPost, ts.URL+"/v1/pipelines/"+ids[i], advance(base))
			switch code {
			case http.StatusOK:
				applied += 2 * base
			case http.StatusConflict:
			default:
				t.Errorf("session %d: advance answered %d: %s", i, code, body)
			}
		}
		return applied
	}

	var applied [sessions + 1]uint64 // the last slot is session 0's second writer
	var writers, reader sync.WaitGroup
	for i := 0; i <= sessions; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			applied[i] = writer(i%sessions, uint64(i+1))
		}()
	}
	stop := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			paths := []string{"/v1/pipelines"}
			for _, id := range ids {
				paths = append(paths, "/v1/pipelines/"+id)
			}
			for _, p := range paths {
				if code, body, _ := doPipeline(t, http.MethodGet, ts.URL+p, nil); code != http.StatusOK {
					t.Errorf("GET %s: %d %s", p, code, body)
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	applied[0] += applied[sessions]

	for i, id := range ids {
		final := advance(0)
		final.Records[1].Dumps = []PipelineRef{{Node: "total", Reg: 48}}
		ar := advancePipeline(t, ts.URL, id, final)
		if got := ar.Records[1].Dumps[0].Values[0]; got != applied[i] {
			t.Errorf("session %d: total %d, fold of the applied advances %d", i, got, applied[i])
		}
		if i > 0 && applied[i] != 2*rounds*uint64(i+1) {
			t.Errorf("session %d: uncontended advances were refused (applied %d)", i, applied[i])
		}
		if code, body, _ := doPipeline(t, http.MethodDelete, ts.URL+"/v1/pipelines/"+id, nil); code != http.StatusOK {
			t.Errorf("close %s: %d %s", id, code, body)
		}
	}
	if got := scrapeMetric(t, ts.URL, "mpud_sessions"); got != "0" {
		t.Errorf("mpud_sessions = %s after every session closed, want 0", got)
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
