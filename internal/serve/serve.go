// Package serve turns the simulator into a long-running MPU-as-a-service
// daemon: warm machine pools per (backend, mode) in front of the
// process-wide decode table, a bounded admission queue with 503
// backpressure, a single-flight coalescer that lets a request join an
// identical one that is queued, running or paused and share its run,
// per-request deadlines, and an observability plane
// (/metrics in Prometheus text format, /healthz, structured JSON request
// logs). The package is stdlib-only.
//
// Determinism contract: the same request produces byte-identical
// machine.Stats JSON whether it is served cold (first request on a fresh
// pool machine), warm (a recycled machine), batched (coalesced with
// identical requests), or under concurrent load — the service layer
// extension of the trace-parity and worker-count-parity discipline. The
// warm path leans on Machine.Reset, which recycles everything a run can
// observe; the decode table it leaves warm is stats-neutral.
//
// QoS classes: the X-QoS header sorts requests into two classes — "latency"
// (interactive, strict queue priority) and "batch" (the default). When a
// latency request arrives and every pool worker is busy, the scheduler asks
// the longest-running batch job to yield at its next instruction boundary; a
// catalog kernel and a submitted binary load differently, then run through
// one loop, so either can pause. The job stays paused on its worker's
// machine, exactly as Run left it, while that worker runs the queued latency
// requests on a second machine of its own; then the job resumes in place.
// Nothing is serialised. Preemption extends rather than weakens the
// determinism contract: a paused-and-resumed run answers with byte-identical
// machine.Stats to an uninterrupted one.
package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/isa"
	"mpu/internal/lint"
	"mpu/internal/lint/comm"
	"mpu/internal/machine"
	"mpu/internal/obs"
	"mpu/internal/workloads"
)

// PoolSpec describes one warm machine pool.
type PoolSpec struct {
	Backend string       // backends.ByName key ("racer", "mimdram", ...)
	Mode    machine.Mode // MPU or Baseline
	Size    int          // warm machines == executor workers (min 1)
}

// Config assembles a Server.
type Config struct {
	// Pools lists the warm machine pools; empty defaults to one two-machine
	// RACER/MPU pool.
	Pools []PoolSpec

	// QueueDepth bounds each pool's admission queue, counted in batches
	// (distinct pieces of work, not coalesced joiners). A full queue refuses
	// admission with 503 + Retry-After. Default 64.
	QueueDepth int

	// MaxElements caps a workload request's element count. Default 1<<20.
	MaxElements int

	// DefaultDeadline applies when a request names no deadline_ms.
	// Default 30s.
	DefaultDeadline time.Duration

	// NodeID labels this daemon in a multi-node cluster: when non-empty it
	// appears as a node="..." label on the /metrics gauges and as a "node"
	// field in the JSON request log, so a router scraping several mpuds can
	// tell the series apart. Metric names are unchanged either way.
	NodeID string

	// DebugDelay artificially delays each batch execution by the given
	// duration (the batch stays joinable meanwhile). It exists for the
	// cluster studies and tests that need one deliberately slow node
	// (hedging p99 experiments) or a worker held busy; it never changes
	// machine.Stats, only wall time. Zero disables it.
	DebugDelay time.Duration

	// MaxSessions bounds the live pipeline sessions (/v1/pipelines). A full
	// table refuses creates with 503 + Retry-After. Default 8.
	MaxSessions int

	// Logs receives one JSON line per answered request; nil discards.
	Logs io.Writer
}

func (c Config) withDefaults() Config {
	if len(c.Pools) == 0 {
		c.Pools = []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 2}}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxElements <= 0 {
		c.MaxElements = 1 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	return c
}

// ParsePoolSpecs parses the mpud/mpuload flag syntax
// "backend:mode:size[,backend:mode:size...]", e.g. "racer:mpu:2,mimdram:mpu:1".
// Size defaults to 1 when omitted.
func ParsePoolSpecs(s string) ([]PoolSpec, error) {
	var out []PoolSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("serve: pool %q: want backend:mode[:size]", part)
		}
		mode, err := ParseMode(fields[1])
		if err != nil {
			return nil, fmt.Errorf("serve: pool %q: %w", part, err)
		}
		size := 1
		if len(fields) == 3 {
			size, err = strconv.Atoi(fields[2])
			if err != nil || size <= 0 {
				return nil, fmt.Errorf("serve: pool %q: bad size", part)
			}
		}
		out = append(out, PoolSpec{Backend: fields[0], Mode: mode, Size: size})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: no pools in %q", s)
	}
	return out, nil
}

// ParseMode maps the wire spelling to a machine mode.
func ParseMode(s string) (machine.Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "mpu":
		return machine.ModeMPU, nil
	case "baseline":
		return machine.ModeBaseline, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want mpu or baseline)", s)
}

// The QoS classes carried by the X-QoS request header.
const (
	ClassLatency = "latency"
	ClassBatch   = "batch"
)

// ParseClass maps the X-QoS header to a class; an absent header means batch.
func ParseClass(s string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", ClassBatch:
		return ClassBatch, nil
	case ClassLatency:
		return ClassLatency, nil
	}
	return "", fmt.Errorf("unknown QoS class %q (want latency or batch)", s)
}

// Request is the /v1/execute body. Exactly one of Workload (a catalog
// kernel) or Binary (base64 of an assembled, encoded program) must be set.
type Request struct {
	Workload   string        `json:"workload,omitempty"`
	Binary     string        `json:"binary,omitempty"`
	Backend    string        `json:"backend"`
	Mode       string        `json:"mode,omitempty"`
	Elements   int           `json:"elements,omitempty"`
	Seed       int64         `json:"seed,omitempty"`
	Check      bool          `json:"check,omitempty"`
	DeadlineMS int64         `json:"deadline_ms,omitempty"`
	Sets       []RegisterSet `json:"sets,omitempty"`  // binary requests: preloads
	Dumps      []RegisterRef `json:"dumps,omitempty"` // binary requests: post-run reads
}

// RegisterSet preloads one vector register on MPU 0 before a binary run.
type RegisterSet struct {
	RFH    uint8 `json:"rfh"`
	VRF    uint8 `json:"vrf"`
	Reg    int   `json:"reg"`
	Values Lanes `json:"values"`
}

// RegisterRef names one vector register to read back after a binary run.
type RegisterRef struct {
	RFH uint8 `json:"rfh"`
	VRF uint8 `json:"vrf"`
	Reg int   `json:"reg"`
}

// RegisterDump is one post-run register read.
type RegisterDump struct {
	RFH    uint8    `json:"rfh"`
	VRF    uint8    `json:"vrf"`
	Reg    int      `json:"reg"`
	Values []uint64 `json:"values"`
}

// Response is the /v1/execute success body. Stats is the stable
// machine.Stats encoding and is byte-identical for a given request however
// it was served; the envelope around it (batch_size) may differ.
type Response struct {
	Workload     string          `json:"workload,omitempty"`
	Backend      string          `json:"backend"`
	Mode         string          `json:"mode"`
	Elements     int             `json:"elements,omitempty"`
	Seed         int64           `json:"seed"`
	BatchSize    int             `json:"batch_size"`
	Seconds      float64         `json:"seconds,omitempty"`
	Joules       float64         `json:"joules,omitempty"`
	CheckedLanes int             `json:"checked_lanes,omitempty"`
	Dumps        []RegisterDump  `json:"dumps,omitempty"`
	Stats        json.RawMessage `json:"stats"`
}

// errorBody is every non-2xx JSON payload. Findings carries the lint report
// when admission rejected the program statically (422), so clients see the
// same machine-readable diagnostics `mpurun -lint -json` emits.
// Applied is set only when an advance failed at a record: how many records
// of that request completed before it (the session keeps their effect).
type errorBody struct {
	Error    string         `json:"error"`
	Findings []lint.Finding `json:"findings,omitempty"`
	Applied  *int           `json:"applied,omitempty"`
}

// poolMPUs is the core count of every pooled machine (MachineConfigFor
// builds single-MPU machines); the admission-time commlint preflight checks
// submitted binaries against the same geometry they will run on.
const poolMPUs = 1

// retryAfter is the Retry-After hint, in seconds, on every 503.
const retryAfter = "1"

// admissionError is a statically rejected submission: the commlint preflight
// proved the program would stall or fault the pooled machine. errResult maps
// it to 422 Unprocessable Entity with the finding report attached — distinct
// from 400 (malformed request) and from the base-lint rejection, which
// predates the communication checks and stays a 400.
type admissionError struct {
	report *lint.Report
}

func (e *admissionError) Error() string {
	return fmt.Sprintf("program rejected by commlint preflight: %d error finding(s)", len(e.report.Errs()))
}

// execReq is a validated request bound to its pool.
type execReq struct {
	raw    Request
	kernel *workloads.Kernel // workload path
	prog   isa.Program       // binary path
	class  string            // QoS class (ClassLatency or ClassBatch)
	key    string            // coalescing identity (class-inclusive)
}

// batchResult is the shared outcome fanned out to every coalesced waiter.
type batchResult struct {
	status int
	body   []byte
}

// batch is one piece of work — queued, running or paused — plus the waiters
// coalesced onto it. It accepts joiners from admit until pool.seal, which
// runs once its result is known.
type batch struct {
	key     string
	class   string
	req     *execReq
	waiters []chan *batchResult // guarded by the pool mutex until sealed
}

// workerState is the scheduler's view of one executor goroutine and its
// warm machine m, which never changes after New. The flags are guarded by the
// pool mutex; the preemption path may call m.Preempt (an atomic flag) while
// the worker's Run is in flight. spare runs latency work while the worker's
// batch job stays paused on m; it is built at the worker's first preemption,
// under the mutex, and read by the worker's goroutine alone.
type workerState struct {
	m           *machine.Machine
	spare       *machine.Machine
	busy        bool      // between take and the next take
	preemptible bool      // running a batch-class job, which can pause
	preempting  bool      // a preemption request is outstanding
	started     time.Time // when the current job was taken or resumed
}

// pool is one (backend, mode) warm machine pool: Size pre-built machines,
// each owned by one executor goroutine, fed from two class queues (latency
// has strict priority).
type pool struct {
	name string
	spec *backends.Spec
	mode machine.Mode
	mc   machine.Config // what every pool machine is built from

	queueDepth int // shared bound across both class queues

	mu      sync.Mutex
	cond    *sync.Cond        // signaled on new work and on close
	latQ    []*batch          // latency-class admission queue (strict priority)
	batQ    []*batch          // batch-class admission queue
	open    map[string]*batch // unsealed batches: queued, running or paused
	workers []*workerState
	closed  bool
}

// depth is the admission-queue occupancy across both classes — the value
// backpressure is computed from and the one /metrics exports, keeping the
// mpud_queue_depth series shape identical to the pre-QoS daemon.
func (p *pool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.latQ) + len(p.batQ)
}

// Server implements the daemon's HTTP surface. Create with New, mount as an
// http.Handler, and on shutdown call Drain (stop admitting), then let the
// HTTP server finish in-flight handlers, then Close.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	pools    map[string]*pool
	order    []string // pool names, sorted: the /healthz inventory and Close order
	metrics  *metrics
	logger   *reqLogger
	sess     *sessionManager
	draining atomic.Bool
	workers  sync.WaitGroup
	started  time.Time
}

// New builds the pools (pre-warming Size machines each) and starts their
// executor workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		pools:   map[string]*pool{},
		metrics: newMetrics(cfg.NodeID),
		logger:  newReqLogger(cfg.Logs, cfg.NodeID),
		sess:    &sessionManager{sessions: map[string]*session{}},
		started: time.Now(),
	}
	for _, ps := range cfg.Pools {
		spec, err := backends.ByName(ps.Backend)
		if err != nil {
			return nil, fmt.Errorf("serve: pool %q: %w", ps.Backend, err)
		}
		name := poolName(spec, ps.Mode)
		if _, dup := s.pools[name]; dup {
			return nil, fmt.Errorf("serve: duplicate pool %s", name)
		}
		size := ps.Size
		if size <= 0 {
			size = 1
		}
		p := &pool{
			name:       name,
			spec:       spec,
			mode:       ps.Mode,
			mc:         workloads.MachineConfigFor(workloads.RunConfig{Spec: spec, Mode: ps.Mode}),
			queueDepth: cfg.QueueDepth,
			open:       map[string]*batch{},
		}
		p.cond = sync.NewCond(&p.mu)
		for i := 0; i < size; i++ {
			m, err := machine.New(p.mc)
			if err != nil {
				return nil, fmt.Errorf("serve: pool %s: %w", name, err)
			}
			ws := &workerState{m: m}
			p.workers = append(p.workers, ws)
			s.workers.Add(1)
			go s.runWorker(p, ws)
		}
		s.pools[name] = p
		s.order = append(s.order, name)
	}
	sort.Strings(s.order)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/execute", s.handleExecute)
	s.mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/v1/pipelines", s.handlePipelines)
	s.mux.HandleFunc("/v1/pipelines/", s.handlePipelineID)
	return s, nil
}

func poolName(spec *backends.Spec, mode machine.Mode) string {
	return spec.Name + "/" + mode.String()
}

// ServeHTTP dispatches to the daemon's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting work: /v1/execute and /healthz answer 503 while
// requests already admitted keep running to completion. Idempotent.
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) {
		s.logger.log(logEntry{Msg: "drain"})
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains, stops the pool workers once their queues empty, and waits
// for them. Call only after the HTTP layer has finished in-flight handlers
// (http.Server.Shutdown, or httptest.Server.Close in tests) — every queued
// batch has a waiting handler, so at that point the queues are empty.
func (s *Server) Close() {
	s.Drain()
	for _, name := range s.order {
		p := s.pools[name]
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.cond.Broadcast()
	}
	s.workers.Wait()
	s.logger.log(logEntry{Msg: "closed"})
}

// runWorker owns one warm machine and executes batches from the pool until
// Close.
func (s *Server) runWorker(p *pool, w *workerState) {
	defer s.workers.Done()
	for b := p.take(w); b != nil; b = p.take(w) {
		s.deliver(p, b, s.execute(p, w, w.m, b))
	}
}

// take blocks until there is work for this worker: a latency batch first,
// then batch work. Returns nil once the pool is closed and fully drained.
func (p *pool) take(w *workerState) *batch {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.busy, w.preemptible, w.preempting = false, false, false
	for {
		if len(p.latQ) > 0 {
			b := p.latQ[0]
			p.latQ = p.latQ[1:]
			w.busy, w.started = true, time.Now()
			return b
		}
		if len(p.batQ) > 0 {
			b := p.batQ[0]
			p.batQ = p.batQ[1:]
			w.busy, w.preemptible, w.started = true, true, time.Now()
			return b
		}
		if p.closed {
			return nil
		}
		p.cond.Wait()
	}
}

// seal closes b to joiners and returns how many requests share its result.
// One hold of the pool mutex covers both, so a request either joined before
// the count was read or starts a batch of its own: no joiner is lost and
// none is served twice. Sealing an already sealed batch changes nothing.
func (p *pool) seal(b *batch) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open[b.key] == b {
		delete(p.open, b.key)
	}
	return len(b.waiters)
}

// deliver fans a batch's shared result out to every coalesced waiter. A
// success was sealed before its body was marshalled (sealResponse); an error
// result is sealed here.
func (s *Server) deliver(p *pool, b *batch, res *batchResult) {
	s.metrics.observeBatch(p.seal(b))
	for _, ch := range b.waiters {
		ch <- res // buffered: an abandoned (deadline-expired) waiter cannot block the pool
	}
}

// admit joins an open identical batch or enqueues the request in its class
// queue; a latency arrival that finds no idle worker asks the longest-running
// preemptible batch job to yield at its next instruction boundary. Joining
// consumes no queue slot: backpressure is on distinct work.
func (p *pool) admit(rq *execReq) (<-chan *batchResult, bool) {
	ch := make(chan *batchResult, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.open[rq.key]; ok {
		b.waiters = append(b.waiters, ch)
		return ch, true
	}
	if len(p.latQ)+len(p.batQ) >= p.queueDepth {
		return nil, false
	}
	b := &batch{key: rq.key, class: rq.class, req: rq, waiters: []chan *batchResult{ch}}
	if rq.class == ClassLatency {
		p.latQ = append(p.latQ, b)
		p.preemptForLatency()
	} else {
		p.batQ = append(p.batQ, b)
	}
	p.open[rq.key] = b
	p.cond.Signal()
	return ch, true
}

// preemptForLatency, called with p.mu held after a latency enqueue, asks the
// longest-running preemptible batch job to yield. A no-op when any worker is
// idle (it will pick the latency batch up directly) or when nothing running
// can be preempted (only latency jobs in flight).
func (p *pool) preemptForLatency() {
	var victim *workerState
	for _, w := range p.workers {
		if !w.busy {
			return
		}
		if w.preemptible && !w.preempting && (victim == nil || w.started.Before(victim.started)) {
			victim = w
		}
	}
	if victim != nil {
		victim.preempting = true
		victim.m.Preempt()
	}
}

// yieldToLatency runs while the worker's batch job is paused on w.m at an
// instruction boundary: it serves the latency queue on the worker's spare
// machine until the queue is empty, then returns so the job resumes in place.
// If another worker already took the burst, the job resumes at once.
func (s *Server) yieldToLatency(p *pool, w *workerState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.preempting = false
	if len(p.latQ) == 0 {
		return
	}
	if w.spare == nil {
		m, err := machine.New(p.mc)
		if err != nil {
			return // no second machine: the job resumes in place
		}
		w.spare = m
	}
	w.preemptible = false // latency work is never preempted
	s.metrics.observePark()
	for len(p.latQ) > 0 {
		b := p.latQ[0]
		p.latQ = p.latQ[1:]
		p.mu.Unlock()
		s.deliver(p, b, s.execute(p, w, w.spare, b))
		p.mu.Lock()
	}
	s.metrics.observeUnpark()
	w.preemptible, w.started = true, time.Now()
}

// execute loads one fresh batch on machine m, one of the worker's two, and
// runs it: a kernel through workloads.PrepareOn, a binary through Reset,
// LoadAll and its preloads.
func (s *Server) execute(p *pool, w *workerState, m *machine.Machine, b *batch) *batchResult {
	if s.cfg.DebugDelay > 0 {
		time.Sleep(s.cfg.DebugDelay)
	}
	rq := b.req
	resp := Response{
		Backend: p.spec.Name,
		Mode:    p.mode.String(),
		Seed:    rq.raw.Seed,
	}
	if rq.kernel != nil {
		prep, err := workloads.PrepareOn(m, rq.kernel, workloads.RunConfig{
			Spec:          p.spec,
			Mode:          p.mode,
			TotalElements: rq.raw.Elements,
			Seed:          rq.raw.Seed,
			Check:         rq.raw.Check,
		})
		if err != nil {
			return errResult(http.StatusInternalServerError, err)
		}
		st, fail := s.run(p, w, m)
		if fail != nil {
			return fail
		}
		res, err := prep.Finish(st)
		if err != nil {
			return errResult(http.StatusInternalServerError, err)
		}
		resp.Workload, resp.Elements = rq.kernel.Name, rq.raw.Elements
		resp.Seconds, resp.Joules, resp.CheckedLanes = res.Seconds, res.Joules, res.CheckedLanes
		return s.sealResponse(p, b, &resp, res.Stats)
	}
	m.Reset()
	if err := m.LoadAll(rq.prog); err != nil {
		return errResult(http.StatusInternalServerError, err)
	}
	for _, set := range rq.raw.Sets {
		a := controlpath.VRFAddr{RFH: set.RFH, VRF: set.VRF}
		if err := m.WriteVector(0, a, set.Reg, set.Values); err != nil {
			return errResult(http.StatusBadRequest, err)
		}
	}
	st, fail := s.run(p, w, m)
	if fail != nil {
		return fail
	}
	for _, d := range rq.raw.Dumps {
		a := controlpath.VRFAddr{RFH: d.RFH, VRF: d.VRF}
		vals, err := m.ReadVector(0, a, d.Reg)
		if err != nil {
			return errResult(http.StatusBadRequest, err)
		}
		resp.Dumps = append(resp.Dumps, RegisterDump{RFH: d.RFH, VRF: d.VRF, Reg: d.Reg, Values: vals})
	}
	return s.sealResponse(p, b, &resp, st)
}

// run drives the program loaded on m to completion. When a preemption
// request lands at an instruction boundary, the run pauses while the worker
// serves latency work, then resumes in place. Preemption is invisible in the
// response: a paused-and-resumed run produces byte-identical stats to an
// uninterrupted one. A failed run returns its error result instead.
func (s *Server) run(p *pool, w *workerState, m *machine.Machine) (*machine.Stats, *batchResult) {
	for {
		// A preemption request that landed before this run started was
		// cleared by the load's Reset; re-arm it so the run yields at its
		// first instruction boundary.
		p.mu.Lock()
		if w.preempting {
			m.Preempt()
		}
		p.mu.Unlock()
		st, err := m.Run()
		if errors.Is(err, machine.ErrPreempted) {
			s.yieldToLatency(p, w)
			continue
		}
		if err != nil {
			return nil, errResult(runStatus(err), err)
		}
		return st, nil
	}
}

// sealResponse seals a finished batch — its result is known, so from here a
// twin request runs again — stamps the final batch size, rolls the run's stats
// into the metrics plane and marshals the shared response body.
func (s *Server) sealResponse(p *pool, b *batch, resp *Response, st *machine.Stats) *batchResult {
	resp.BatchSize = p.seal(b)
	s.metrics.rollupStats(st.TraceHits, st.TraceMisses, st.TraceFallbacks, st.JITCompiles, st.JITReplays, st.Rounds)
	statsJSON, err := json.Marshal(st)
	if err != nil {
		return errResult(http.StatusInternalServerError, err)
	}
	resp.Stats = statsJSON
	return jsonResult(http.StatusOK, resp)
}

// runStatus answers a failed run: 422 when the program went past a
// capacity limit (machine.ErrCapacityFault), 500 for any other fault.
func runStatus(err error) int {
	if errors.Is(err, machine.ErrCapacityFault) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// errResult renders err into the errorBody envelope. An admissionError is
// always a 422 and carries its finding report; a recordError carries how many
// records its advance applied.
func errResult(status int, err error) *batchResult {
	eb := errorBody{Error: err.Error()}
	var adm *admissionError
	var rec *recordError
	switch {
	case errors.As(err, &adm):
		status, eb.Findings = http.StatusUnprocessableEntity, adm.report.Findings
	case errors.As(err, &rec):
		eb.Applied = &rec.applied
	}
	body, _ := json.Marshal(eb)
	return &batchResult{status: status, body: body}
}

// jsonResult answers with v as the body.
func jsonResult(status int, v any) *batchResult {
	body, err := json.Marshal(v)
	if err != nil {
		return errResult(http.StatusInternalServerError, err)
	}
	return &batchResult{status: status, body: body}
}

// validate parses the wire request into an execReq bound to a pool.
func (s *Server) validate(raw *Request, class string) (*execReq, *pool, error) {
	mode, err := ParseMode(raw.Mode)
	if err != nil {
		return nil, nil, err
	}
	spec, err := backends.ByName(raw.Backend)
	if err != nil {
		return nil, nil, err
	}
	p, ok := s.pools[poolName(spec, mode)]
	if !ok {
		return nil, nil, fmt.Errorf("no pool for %s (have %s)", poolName(spec, mode), strings.Join(s.order, ", "))
	}
	rq := &execReq{raw: *raw, class: class}
	switch {
	case raw.Workload != "" && raw.Binary != "":
		return nil, nil, fmt.Errorf("request names both a workload and a binary")
	case raw.Workload != "":
		rq.kernel = workloads.ByName(raw.Workload)
		if rq.kernel == nil {
			return nil, nil, fmt.Errorf("unknown workload %q (see /v1/workloads)", raw.Workload)
		}
		if raw.Elements <= 0 {
			return nil, nil, fmt.Errorf("workload request needs elements > 0")
		}
		if raw.Elements > s.cfg.MaxElements {
			return nil, nil, fmt.Errorf("elements %d exceeds the per-request cap %d", raw.Elements, s.cfg.MaxElements)
		}
		if len(raw.Sets) > 0 || len(raw.Dumps) > 0 {
			return nil, nil, fmt.Errorf("sets/dumps apply to binary requests only")
		}
	case raw.Binary != "":
		buf, err := base64.StdEncoding.DecodeString(raw.Binary)
		if err != nil {
			return nil, nil, fmt.Errorf("binary is not base64: %w", err)
		}
		prog, err := isa.DecodeProgram(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("binary does not decode: %w", err)
		}
		// Lint preflight at admission: a program with Error findings is
		// rejected with the report before it can consume a queue slot or
		// trip a runtime guard on a pooled machine.
		if err := lint.Preflight(prog, spec); err != nil {
			return nil, nil, err
		}
		// Communication preflight: pool machines run the binary SPMD, so a
		// program whose rendezvous cannot complete (self-send, out-of-mesh
		// partner, unmatched or deadlocking exchange) would park a warm
		// machine until the deadlock detector fires. Reject it statically
		// with the finding report instead — before pool admission.
		if rep := comm.LintSPMD(prog, poolMPUs, comm.Options{Spec: spec}); !rep.Ok() {
			return nil, nil, &admissionError{report: rep}
		}
		rq.prog = prog
	default:
		return nil, nil, fmt.Errorf("request needs a workload or a binary")
	}
	// The class is part of the coalescing identity: a latency request never
	// rides on an open batch-class twin, which may be paused behind it.
	key, err := json.Marshal(struct {
		W  string        `json:"w"`
		B  string        `json:"b"`
		E  int           `json:"e"`
		S  int64         `json:"s"`
		C  bool          `json:"c"`
		Q  string        `json:"q"`
		St []RegisterSet `json:"st,omitempty"`
		D  []RegisterRef `json:"d,omitempty"`
	}{raw.Workload, raw.Binary, raw.Elements, raw.Seed, raw.Check, class, raw.Sets, raw.Dumps})
	if err != nil {
		return nil, nil, err
	}
	rq.key = string(key)
	return rq, p, nil
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	start := time.Now()
	e := logEntry{Msg: "request"}
	class, err := ParseClass(r.Header.Get("X-QoS"))
	if err != nil {
		s.finish(w, start, errResult(http.StatusBadRequest, err), e)
		return
	}
	e.Class = class
	var raw Request
	body := http.MaxBytesReader(w, r.Body, 8<<20)
	if err := json.NewDecoder(body).Decode(&raw); err != nil {
		s.finish(w, start, errResult(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)), e)
		return
	}
	e.Workload = raw.Workload
	rq, p, err := s.validate(&raw, class)
	if err != nil {
		s.finish(w, start, errResult(http.StatusBadRequest, err), e)
		return
	}
	e.pool = p
	if s.Draining() {
		s.refuse(w, start, "draining", e)
		return
	}
	ch, admitted := p.admit(rq)
	if !admitted {
		s.refuse(w, start, "queue full", e)
		return
	}
	s.metrics.inflight.Inc()
	defer s.metrics.inflight.Add(-1)

	deadline := s.cfg.DefaultDeadline
	if raw.DeadlineMS > 0 {
		deadline = time.Duration(raw.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	select {
	case res := <-ch:
		s.finish(w, start, res, e)
	case <-ctx.Done():
		// The batch still executes (its result lands in the buffered
		// channel); only this waiter gives up.
		s.finish(w, start, errResult(http.StatusGatewayTimeout, fmt.Errorf("deadline exceeded after %s", deadline)), e)
	}
}

// refuse answers 503 + Retry-After, the admission-side backpressure path of
// both /v1/execute and /v1/pipelines, and logs e as a refusal.
func (s *Server) refuse(w http.ResponseWriter, start time.Time, why string, e logEntry) {
	w.Header().Set("Retry-After", retryAfter)
	s.metrics.observeDrop(http.StatusServiceUnavailable)
	res := errResult(http.StatusServiceUnavailable, fmt.Errorf("not admitted: %s", why))
	writeBody(w, res.status, res.body)
	e.Msg, e.Status, e.MS, e.Err = "refused", res.status, msSince(start), why
	s.logger.log(e)
}

// finish writes the response of /v1/execute or /v1/pipelines, counts it in
// the metrics plane (under its QoS class, if e names one) and logs e with
// the outcome.
func (s *Server) finish(w http.ResponseWriter, start time.Time, res *batchResult, e logEntry) {
	elapsed := time.Since(start).Seconds()
	s.metrics.observeRequest(res.status, elapsed)
	if e.Class != "" {
		s.metrics.observeClass(e.Class, elapsed)
	}
	writeBody(w, res.status, res.body)
	e.Status, e.MS = res.status, elapsed*1e3
	if res.status >= 400 {
		var eb errorBody
		if json.Unmarshal(res.body, &eb) == nil {
			e.Err = eb.Error
		}
	}
	s.logger.log(e)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := obs.NodeHealth{
		Status: "ok", Node: s.cfg.NodeID, Pools: s.order, UpSec: time.Since(s.started).Seconds(),
		Inflight: s.metrics.inflight.Value(),
	}
	for _, depth := range s.queueDepths() {
		h.QueueDepth += int64(depth)
	}
	code := http.StatusOK
	if s.Draining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// queueDepths samples every pool's admission queue: pool name → batches waiting.
func (s *Server) queueDepths() map[string]int {
	depths := make(map[string]int, len(s.pools))
	for name, p := range s.pools {
		depths[name] = p.depth()
	}
	return depths
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, s.queueDepths(), machine.DecodeTableStats())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name   string `json:"name"`
		Group  string `json:"group"`
		Inputs int    `json:"inputs"`
	}
	var out struct {
		Workloads []entry `json:"workloads"`
	}
	for _, k := range workloads.All() {
		out.Workloads = append(out.Workloads, entry{Name: k.Name, Group: k.Group.String(), Inputs: k.Inputs})
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, body)
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1e3 }
