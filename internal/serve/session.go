package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/fbp"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// The pipeline session plane: POST /v1/pipelines compiles an FBP graph once
// into a persistent session, and each later POST /v1/pipelines/{id} streams
// records through the already-compiled, already-warm pipeline. The expensive
// work — parsing, placement, ensemble emission, commlint verification,
// trace recording and JIT compilation — happens exactly once per session;
// every record after the first replays warm traces (the per-record response
// pins this with its trace_misses/jit_compiles summary, which a steady-state
// session reports as zero).
//
// A session owns its machine: the first advance builds it and loads the
// compiled programs, every later advance runs on it where it stands, and
// close drops it for the collector — state stays where it is computed, and
// nothing is serialised between requests. What sessions can hold is bounded
// by MaxSessions machines of at most MaxPipelineMPUs MPUs each (a live
// six-MPU racer machine measured 397 KB of heap, its snapshot 270 KB: a
// parked copy saved nothing the table bound does not already cap).
// Admission failures reuse the /v1/execute taxonomy: a grammar or
// component error is a 400, a graph the machine-level verifier rejects
// (deadlocking composition, geometry overflow) is a 422 carrying the finding
// report, and a full session table is 503 + Retry-After.

// maxAdvanceRecords bounds one advance request, and with it how long one
// request holds the session (a concurrent advance or close answers 409
// meanwhile) and how large its response grows; longer streams split across
// requests.
const maxAdvanceRecords = 256

// PipelineRequest is the POST /v1/pipelines body.
type PipelineRequest struct {
	Source  string `json:"source"`             // FBP graph text
	Backend string `json:"backend"`            // backends.ByName key
	Mode    string `json:"mode,omitempty"`     // mpu (default) or baseline
	MaxMPUs int    `json:"max_mpus,omitempty"` // optional placement cap below the server's
}

// PipelineResponse is the create success body: the session id plus the
// placement the compiler chose.
type PipelineResponse struct {
	ID      string           `json:"id"`
	Backend string           `json:"backend"`
	Mode    string           `json:"mode"`
	MPUs    int              `json:"mpus"`
	Lanes   int              `json:"lanes"`
	Hops    int              `json:"hops"`
	Nodes   []fbp.PlacedNode `json:"nodes"`
}

// PipelineSet preloads one vector register on a named node before a record
// runs. RFH/VRF address within the node's MPU (streaming components read
// record registers at rfh 0, vrf 0).
type PipelineSet struct {
	Node   string `json:"node"`
	RFH    uint8  `json:"rfh"`
	VRF    uint8  `json:"vrf"`
	Reg    int    `json:"reg"`
	Values Lanes  `json:"values"`
}

// PipelineRef names one vector register on a named node to read back after a
// record runs.
type PipelineRef struct {
	Node string `json:"node"`
	RFH  uint8  `json:"rfh"`
	VRF  uint8  `json:"vrf"`
	Reg  int    `json:"reg"`
}

// PipelineDump is one post-record register read.
type PipelineDump struct {
	Node   string   `json:"node"`
	RFH    uint8    `json:"rfh"`
	VRF    uint8    `json:"vrf"`
	Reg    int      `json:"reg"`
	Values []uint64 `json:"values"`
}

// PipelineRecord is one record streamed through the session: registers to
// write before the run and registers to read after it.
type PipelineRecord struct {
	Sets  []PipelineSet `json:"sets,omitempty"`
	Dumps []PipelineRef `json:"dumps,omitempty"`
}

// AdvanceRequest is the POST /v1/pipelines/{id} body.
type AdvanceRequest struct {
	Records []PipelineRecord `json:"records"`
	Stats   bool             `json:"stats,omitempty"` // include per-record machine.Stats
}

// RecordResult is one record's outputs.
type RecordResult struct {
	Dumps []PipelineDump  `json:"dumps,omitempty"`
	Stats json.RawMessage `json:"stats,omitempty"`
}

// SessionSummary sums this request's per-record counters. TraceMisses and
// JITCompiles are the recompilation account: a steady-state session (every
// record after its first) reports both as zero — records ride entirely on
// traces recorded and JIT'd during record one.
type SessionSummary struct {
	Records      int    `json:"records"`
	TotalRecords uint64 `json:"total_records"` // session lifetime, including this request
	Cycles       int64  `json:"cycles"`
	TraceHits    uint64 `json:"trace_hits"`
	TraceMisses  uint64 `json:"trace_misses"`
	JITCompiles  uint64 `json:"jit_compiles"`
	JITReplays   uint64 `json:"jit_replays"`
}

// AdvanceResponse is the advance success body.
type AdvanceResponse struct {
	ID      string         `json:"id"`
	Records []RecordResult `json:"records"`
	Summary SessionSummary `json:"summary"`
}

// SessionStatus is the GET /v1/pipelines/{id} body and the element of the
// GET /v1/pipelines listing.
type SessionStatus struct {
	ID      string           `json:"id"`
	Backend string           `json:"backend"`
	Mode    string           `json:"mode"`
	MPUs    int              `json:"mpus"`
	Nodes   []fbp.PlacedNode `json:"nodes"`
	Records uint64           `json:"records"`
	Busy    bool             `json:"busy"`
	AgeSec  float64          `json:"age_sec"`
}

// session is one live pipeline: the compiled placement plus the machine its
// state lives on. busy/records are guarded by the manager mutex; m belongs
// to the request that holds busy; compiled/nodeMPU/spec are immutable after
// create.
type session struct {
	id       string
	spec     *backends.Spec
	mode     machine.Mode
	compiled *fbp.Compiled
	nodeMPU  map[string]int
	created  time.Time

	busy    bool             // an advance request holds the session
	m       *machine.Machine // nil until the first advance builds and loads it
	records uint64           // lifetime records streamed
}

// sessionManager owns the session table. The sessions map has two writers,
// both under the mutex: createSession inserts after the MaxSessions check,
// closeSession deletes (and with the session goes its machine); every other
// path reads it. TestPipelineLimits (the bound) and
// TestPipelineSessionStreaming (the gauge returns to zero on close) hold the
// two to that.
type sessionManager struct {
	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
}

// loadMachine builds the session's machine — configured the same way the
// pools derive theirs, at the compiled placement's MPU count — and loads the
// compiled programs: the first advance's one-time cost. It starts out running
// its phases on the advancing goroutine (fanOutMicroOps).
func (s *Server) loadMachine(sess *session) (*machine.Machine, error) {
	mc := workloads.MachineConfigFor(workloads.RunConfig{Spec: sess.spec, Mode: sess.mode, Workers: 1})
	mc.NumMPUs = sess.compiled.MPUs
	m, err := machine.New(mc)
	if err != nil {
		return nil, err
	}
	for mpu, p := range sess.compiled.Programs {
		if err := m.LoadProgram(mpu, p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// fanOutMicroOps is the modelled work per rendezvous, in a session's first
// record, from which its machine fans run phases out to one goroutine per
// CPU; the stats it is read from are the same at any worker count. Below it
// a phase costs less than the fan-out: etl.fbp (≈ 860 micro-ops per
// rendezvous) advances twice as fast inline, editdistance_ring.fbp
// (≈ 53,000) and llmencode.fbp (≈ 10 million) faster fanned out
// (docs/PERF.md, "Which session machines fan out").
const fanOutMicroOps = 1 << 13

// createSession compiles the graph and installs the session — the table's
// only insert, made after the MaxSessions check under the same lock.
func (s *Server) createSession(req *PipelineRequest) (*PipelineResponse, int, error) {
	mode, err := ParseMode(req.Mode)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	spec, err := backends.ByName(req.Backend)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, http.StatusBadRequest, fmt.Errorf("pipeline request needs a source graph")
	}
	maxMPUs := s.cfg.MaxPipelineMPUs
	if req.MaxMPUs > 0 && req.MaxMPUs < maxMPUs {
		maxMPUs = req.MaxMPUs
	}
	c, err := fbp.CompileSource(req.Source, fbp.Options{Spec: spec, MaxMPUs: maxMPUs})
	if err != nil {
		// The same admission taxonomy as /v1/execute: malformed submissions
		// are 400, graphs the machine-level verifier rejects are 422 with
		// the finding report attached.
		var le *fbp.LintError
		if errors.As(err, &le) {
			return nil, http.StatusUnprocessableEntity, &admissionError{report: le.Report}
		}
		return nil, http.StatusBadRequest, err
	}
	nodeMPU := make(map[string]int, len(c.Nodes))
	for _, n := range c.Nodes {
		nodeMPU[n.Name] = n.MPU
	}
	s.sess.mu.Lock()
	defer s.sess.mu.Unlock()
	if len(s.sess.sessions) >= s.cfg.MaxSessions {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("session table full (%d live sessions)", s.cfg.MaxSessions)
	}
	s.sess.nextID++
	id := "p" + strconv.FormatUint(s.sess.nextID, 10)
	if s.cfg.NodeID != "" {
		id = s.cfg.NodeID + "-" + id
	}
	sess := &session{id: id, spec: spec, mode: mode, compiled: c, nodeMPU: nodeMPU, created: time.Now()}
	s.sess.sessions[id] = sess
	s.metrics.sessionsOpen.Inc()
	return &PipelineResponse{
		ID: id, Backend: spec.Name, Mode: mode.String(),
		MPUs: c.MPUs, Lanes: spec.Lanes, Hops: c.Hops, Nodes: c.Nodes,
	}, http.StatusOK, nil
}

// recordError is an advance that failed at one record: the applied records
// before it ran and the session keeps their effect, so the error envelope
// tells the client where to resume.
type recordError struct {
	applied int
	err     error
}

func (e *recordError) Error() string { return e.err.Error() }

// advanceSession streams one request's records through the session: claim,
// build and load the machine if this is the first advance, then per record
// Rewind → write → Run → read, and unclaim. It never writes the session
// table: under the manager mutex it claims and releases the session's busy
// flag, which is what hands the machine from one request to the next.
func (s *Server) advanceSession(id string, req *AdvanceRequest) (*AdvanceResponse, int, error) {
	if len(req.Records) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("advance request carries no records")
	}
	if len(req.Records) > maxAdvanceRecords {
		return nil, http.StatusBadRequest, fmt.Errorf("advance request carries %d records, cap is %d per request", len(req.Records), maxAdvanceRecords)
	}
	s.sess.mu.Lock()
	sess := s.sess.sessions[id]
	if sess == nil {
		s.sess.mu.Unlock()
		return nil, http.StatusNotFound, fmt.Errorf("no session %q", id)
	}
	if sess.busy {
		s.sess.mu.Unlock()
		return nil, http.StatusConflict, fmt.Errorf("session %q has an advance in flight", id)
	}
	sess.busy = true
	s.sess.mu.Unlock()

	resp := &AdvanceResponse{ID: id}
	status, err := s.runRecords(sess, req, resp)

	// A bad record (wrong lane count, unknown node) costs that request, not
	// the session: the machine keeps the state the stream reached.
	s.sess.mu.Lock()
	sess.records += uint64(resp.Summary.Records)
	resp.Summary.TotalRecords = sess.records
	sess.busy = false
	s.sess.mu.Unlock()
	s.metrics.sessionRecords.Add(int64(resp.Summary.Records))
	if err != nil {
		return nil, status, err
	}
	return resp, status, nil
}

// runRecords is the part of an advance that holds the session's machine;
// the caller holds busy. A failed first load leaves the session without a
// machine, and the next advance builds one again.
func (s *Server) runRecords(sess *session, req *AdvanceRequest, resp *AdvanceResponse) (int, error) {
	if sess.m == nil {
		m, err := s.loadMachine(sess)
		if err != nil {
			return http.StatusInternalServerError, err
		}
		sess.m = m
	}
	m := sess.m
	fail := func(status int, err error) (int, error) {
		return status, &recordError{applied: resp.Summary.Records, err: err}
	}
	for _, rec := range req.Records {
		m.Rewind()
		if status, err := s.applySets(m, sess, rec.Sets); err != nil {
			return fail(status, err)
		}
		st, err := m.Run()
		if err != nil {
			return fail(http.StatusInternalServerError, err)
		}
		if sess.records == 0 && resp.Summary.Records == 0 && st.MicroOps/(st.Sends+1) >= fanOutMicroOps {
			m.SetWorkers(0) // the first record's phases are long: one worker per CPU
		}
		rr := RecordResult{}
		if rr.Dumps, err = s.readDumps(m, sess, rec.Dumps); err != nil {
			return fail(http.StatusBadRequest, err)
		}
		if req.Stats {
			if rr.Stats, err = json.Marshal(st); err != nil {
				return fail(http.StatusInternalServerError, err)
			}
		}
		resp.Records = append(resp.Records, rr)
		resp.Summary.Records++
		resp.Summary.Cycles += st.Cycles
		resp.Summary.TraceHits += st.TraceHits
		resp.Summary.TraceMisses += st.TraceMisses
		resp.Summary.JITCompiles += st.JITCompiles
		resp.Summary.JITReplays += st.JITReplays
		s.metrics.rollupStats(st.TraceHits, st.TraceMisses, st.TraceFallbacks, st.JITCompiles, st.JITReplays, st.Rounds)
	}
	return http.StatusOK, nil
}

func (s *Server) applySets(m *machine.Machine, sess *session, sets []PipelineSet) (int, error) {
	for _, set := range sets {
		mpu, ok := sess.nodeMPU[set.Node]
		if !ok {
			return http.StatusBadRequest, fmt.Errorf("set names unknown node %q", set.Node)
		}
		a := controlpath.VRFAddr{RFH: set.RFH, VRF: set.VRF}
		if err := m.WriteVector(mpu, a, set.Reg, set.Values); err != nil {
			return http.StatusBadRequest, err
		}
	}
	return http.StatusOK, nil
}

func (s *Server) readDumps(m *machine.Machine, sess *session, refs []PipelineRef) ([]PipelineDump, error) {
	var out []PipelineDump
	for _, d := range refs {
		mpu, ok := sess.nodeMPU[d.Node]
		if !ok {
			return nil, fmt.Errorf("dump names unknown node %q", d.Node)
		}
		a := controlpath.VRFAddr{RFH: d.RFH, VRF: d.VRF}
		vals, err := m.ReadVector(mpu, a, d.Reg)
		if err != nil {
			return nil, err
		}
		out = append(out, PipelineDump{Node: d.Node, RFH: d.RFH, VRF: d.VRF, Reg: d.Reg, Values: vals})
	}
	return out, nil
}

// closeSession removes a session, and with it the machine it owned — the
// table's only delete, refused while an advance holds the session.
func (s *Server) closeSession(id string) (*SessionStatus, int, error) {
	s.sess.mu.Lock()
	defer s.sess.mu.Unlock()
	sess := s.sess.sessions[id]
	if sess == nil {
		return nil, http.StatusNotFound, fmt.Errorf("no session %q", id)
	}
	if sess.busy {
		return nil, http.StatusConflict, fmt.Errorf("session %q has an advance in flight", id)
	}
	delete(s.sess.sessions, id)
	s.metrics.sessionsOpen.Add(-1)
	return sess.status(), http.StatusOK, nil
}

// sessionStatus reports a live session's status, nil for an unknown id.
func (s *Server) sessionStatus(id string) *SessionStatus {
	s.sess.mu.Lock()
	defer s.sess.mu.Unlock()
	if sess := s.sess.sessions[id]; sess != nil {
		return sess.status()
	}
	return nil
}

// status renders the session's externally visible state; call with the
// manager mutex held.
func (sess *session) status() *SessionStatus {
	return &SessionStatus{
		ID:      sess.id,
		Backend: sess.spec.Name,
		Mode:    sess.mode.String(),
		MPUs:    sess.compiled.MPUs,
		Nodes:   sess.compiled.Nodes,
		Records: sess.records,
		Busy:    sess.busy,
		AgeSec:  time.Since(sess.created).Seconds(),
	}
}

// handlePipelines serves the collection endpoint: POST creates a session,
// GET lists the live ones.
func (s *Server) handlePipelines(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.sess.mu.Lock()
		ids := make([]string, 0, len(s.sess.sessions))
		for id := range s.sess.sessions {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var out struct {
			Sessions []*SessionStatus `json:"sessions"`
		}
		out.Sessions = []*SessionStatus{}
		for _, id := range ids {
			out.Sessions = append(out.Sessions, s.sess.sessions[id].status())
		}
		s.sess.mu.Unlock()
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		start := time.Now()
		if s.Draining() {
			s.refusePipeline(w, "", start, "draining")
			return
		}
		var req PipelineRequest
		body := http.MaxBytesReader(w, r.Body, 1<<20)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.finishPipeline(w, "", "create", start, http.StatusBadRequest,
				errResult(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)))
			return
		}
		resp, status, err := s.createSession(&req)
		if err != nil {
			if status == http.StatusServiceUnavailable {
				s.refusePipeline(w, "", start, err.Error())
				return
			}
			s.finishPipeline(w, "", "create", start, status, pipelineError(status, err))
			return
		}
		s.finishPipeline(w, resp.ID, "create", start, status, jsonResult(status, resp))
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET or POST only"})
	}
}

// handlePipelineID serves one session: POST advances it, GET reports its
// status, DELETE closes it.
func (s *Server) handlePipelineID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/pipelines/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "want /v1/pipelines/{id}"})
		return
	}
	start := time.Now()
	switch r.Method {
	case http.MethodGet:
		st := s.sessionStatus(id)
		if st == nil {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no session %q", id)})
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodPost:
		// Advancing an existing session is admitted work, so it keeps
		// flowing during a drain; only new sessions are refused. An unknown
		// id is refused before its body (up to 64 MiB) is read.
		if s.sessionStatus(id) == nil {
			s.finishPipeline(w, id, "advance", start, http.StatusNotFound,
				errResult(http.StatusNotFound, fmt.Errorf("no session %q", id)))
			return
		}
		var req AdvanceRequest
		body := http.MaxBytesReader(w, r.Body, 64<<20)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.finishPipeline(w, id, "advance", start, http.StatusBadRequest,
				errResult(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)))
			return
		}
		resp, status, err := s.advanceSession(id, &req)
		if err != nil {
			s.finishPipeline(w, id, "advance", start, status, pipelineError(status, err))
			return
		}
		s.finishPipeline(w, id, "advance", start, status, jsonResult(status, resp))
	case http.MethodDelete:
		st, status, err := s.closeSession(id)
		if err != nil {
			s.finishPipeline(w, id, "close", start, status, pipelineError(status, err))
			return
		}
		s.finishPipeline(w, id, "close", start, status, jsonResult(status, st))
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET, POST, or DELETE only"})
	}
}

// pipelineError renders an error into the shared errorBody envelope,
// attaching the finding report on 422s exactly as /v1/execute does, and the
// applied count when an advance stopped at a record.
func pipelineError(status int, err error) *batchResult {
	eb := errorBody{Error: err.Error()}
	var adm *admissionError
	var rec *recordError
	switch {
	case errors.As(err, &adm):
		eb.Findings = adm.report.Findings
	case errors.As(err, &rec):
		eb.Applied = &rec.applied
	}
	body, _ := json.Marshal(eb)
	return &batchResult{status: status, body: body}
}

func jsonResult(status int, v any) *batchResult {
	body, err := json.Marshal(v)
	if err != nil {
		return errResult(http.StatusInternalServerError, err)
	}
	return &batchResult{status: status, body: body}
}

// finishPipeline writes the response, counts it in the metrics plane, and
// logs one line.
func (s *Server) finishPipeline(w http.ResponseWriter, id, op string, start time.Time, status int, res *batchResult) {
	elapsed := time.Since(start).Seconds()
	s.metrics.observeRequest(status, elapsed)
	writeBody(w, status, res.body)
	e := logEntry{Msg: "pipeline", Pipeline: id, Workload: op, Status: status, MS: elapsed * 1e3}
	if status >= 400 {
		var eb errorBody
		if json.Unmarshal(res.body, &eb) == nil {
			e.Err = eb.Error
		}
	}
	s.logger.log(e)
}

// refusePipeline is the 503 + Retry-After path for creates (draining, or the
// session table is full).
func (s *Server) refusePipeline(w http.ResponseWriter, id string, start time.Time, why string) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	s.metrics.observeDrop(http.StatusServiceUnavailable)
	res := errResult(http.StatusServiceUnavailable, fmt.Errorf("not admitted: %s", why))
	writeBody(w, res.status, res.body)
	s.logger.log(logEntry{Msg: "refused", Pipeline: id, Workload: "create",
		Status: http.StatusServiceUnavailable, MS: msSince(start), Err: why})
}
