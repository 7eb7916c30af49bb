package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/fbp"
	"mpu/internal/machine"
	"mpu/internal/serve"
	"mpu/internal/workloads"
)

const (
	pipelineSessions   = 2 // one per client
	recordsPerAdvance  = 8
	pipelineBodyCycle  = 32 // distinct advance bodies per session
	pipelineTotalReg   = 48 // the Reduce accumulator of etl.fbp's node total
	pipelineValueBound = 1 << 16
)

// repoFile opens a file of the repository by its path from the root, found
// by walking up from the working directory to go.mod (the benchmark runs
// from the root, its tests from bench/).
func repoFile(rel string) ([]byte, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return os.ReadFile(filepath.Join(dir, rel))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}

// etlFold is the scalar reference of examples/pipelines/etl.fbp for one
// lane: max(vecadd, vecxor), zeroed below the Filter's min of 1, added into
// the resident total.
func etlFold(r0, r1 uint64) uint64 {
	v := r0 + r1
	if x := r0 ^ r1; x > v {
		v = x
	}
	return v
}

// advanceBody is one pre-built advance request and what it adds to each lane
// of the session's running total.
type advanceBody struct {
	records []serve.PipelineRecord
	body    []byte
	delta   []uint64
}

func newAdvanceBody(rng *rand.Rand, lanes int) (*advanceBody, error) {
	a := &advanceBody{delta: make([]uint64, lanes)}
	for r := 0; r < recordsPerAdvance; r++ {
		r0, r1 := make([]uint64, lanes), make([]uint64, lanes)
		for l := range r0 {
			r0[l], r1[l] = uint64(rng.Intn(pipelineValueBound)), uint64(rng.Intn(pipelineValueBound))
			a.delta[l] += etlFold(r0[l], r1[l])
		}
		rec := serve.PipelineRecord{Sets: []serve.PipelineSet{
			{Node: "src", Reg: 0, Values: r0}, {Node: "src", Reg: 1, Values: r1},
		}}
		if r == recordsPerAdvance-1 {
			rec.Dumps = []serve.PipelineRef{{Node: "total", Reg: pipelineTotalReg}}
		}
		a.records = append(a.records, rec)
	}
	var err error
	a.body, err = json.Marshal(serve.AdvanceRequest{Records: a.records})
	return a, err
}

// session is one client's resident pipeline and the total it must hold.
type session struct {
	id     string
	bodies []*advanceBody
	next   int      // advances sent
	total  []uint64 // expected accumulator after them
}

// pipelineInstance is pipeline-stream: every advance is Restore, run six
// MPUs with SEND/RECV barriers per record, Snapshot-park.
type pipelineInstance struct {
	src      string // etl.fbp
	topo     *topology
	cl       *client
	table    *refTable
	sessions []*session
	slice    int
	createMS []float64
	// Summed over the timed advances; both must stay 0 on a warm session.
	warmMisses, warmCompiles uint64
}

func newPipeline(seed int64, sz *sizes) (instance, error) {
	src, err := repoFile("examples/pipelines/etl.fbp")
	if err != nil {
		return nil, err
	}
	topo, err := startTopology(false, serve.Config{}, "racer:mpu:2")
	if err != nil {
		return nil, err
	}
	p := &pipelineInstance{src: string(src), topo: topo, cl: newClient(nproc), table: newRefTable(), slice: sz.pipeSlice}
	create, err := json.Marshal(serve.PipelineRequest{Source: p.src, Backend: "racer"})
	if err != nil {
		p.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < pipelineSessions; s++ {
		t0 := time.Now()
		status, body, _, err := p.cl.do(http.MethodPost, topo.front+"/v1/pipelines", create, "")
		p.createMS = append(p.createMS, msSince(t0))
		var created serve.PipelineResponse
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("create session: status %d: %s", status, bytes.TrimSpace(body))
		}
		if err == nil {
			err = json.Unmarshal(body, &created)
		}
		if err != nil {
			p.close()
			return nil, err
		}
		sess := &session{id: created.ID, total: make([]uint64, created.Lanes)}
		for i := 0; i < pipelineBodyCycle; i++ {
			a, err := newAdvanceBody(rng, created.Lanes)
			if err != nil {
				p.close()
				return nil, err
			}
			sess.bodies = append(sess.bodies, a)
		}
		p.sessions = append(p.sessions, sess)
	}
	if err := p.reference(); err != nil {
		p.close()
		return nil, err
	}
	// One warm advance per session: traces recorded, JIT compiled, parked.
	for s := range p.sessions {
		if _, err := p.advance(s, nil); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

// reference streams session 0's first two advances through the compiled
// graph on a fresh machine, directly: the per-record machine.Stats and the
// final total go into the reference table (and so into the golden digest),
// and the total must equal the scalar fold.
func (p *pipelineInstance) reference() error {
	spec := mustSpec("racer")
	m, c, err := etlMachine(p.src, spec)
	if err != nil {
		return err
	}
	sess := p.sessions[0]
	want := make([]uint64, spec.Lanes)
	for a, body := range sess.bodies[:2] {
		for r, rec := range body.records {
			st, err := runRecord(m, c, rec)
			if err != nil {
				return err
			}
			js, err := json.Marshal(st)
			if err != nil {
				return err
			}
			p.table.raw[fmt.Sprintf("etl|advance%d|record%d", a, r)] = js
		}
		for l := range want {
			want[l] += body.delta[l]
		}
	}
	got, err := m.ReadVector(nodeMPU(c, "total"), controlpath.VRFAddr{}, pipelineTotalReg)
	if err != nil {
		return err
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("etl reference: total %v, scalar fold %v", got, want)
	}
	p.table.raw["etl|total"] = []byte(fmt.Sprint(got))
	return nil
}

// etlMachine compiles the graph as serve's session plane does and loads it
// onto a fresh machine of the session geometry.
func etlMachine(src string, spec *backends.Spec) (*machine.Machine, *fbp.Compiled, error) {
	c, err := fbp.CompileSource(src, fbp.Options{Spec: spec, MaxMPUs: 64})
	if err != nil {
		return nil, nil, err
	}
	mc := workloads.MachineConfigFor(workloads.RunConfig{Spec: spec, Mode: machine.ModeMPU})
	mc.NumMPUs = c.MPUs
	m, err := machine.New(mc)
	if err != nil {
		return nil, nil, err
	}
	for mpu, prog := range c.Programs {
		if err := m.LoadProgram(mpu, prog); err != nil {
			return nil, nil, err
		}
	}
	return m, c, nil
}

func nodeMPU(c *fbp.Compiled, name string) int {
	for _, n := range c.Nodes {
		if n.Name == name {
			return n.MPU
		}
	}
	return 0
}

// runRecord streams one record through a loaded pipeline machine the way
// serve's advance does: Rewind, write the sets, Run.
func runRecord(m *machine.Machine, c *fbp.Compiled, rec serve.PipelineRecord) (*machine.Stats, error) {
	m.Rewind()
	for _, set := range rec.Sets {
		a := controlpath.VRFAddr{RFH: set.RFH, VRF: set.VRF}
		if err := m.WriteVector(nodeMPU(c, set.Node), a, set.Reg, set.Values); err != nil {
			return nil, err
		}
	}
	return m.Run()
}

// advance sends session s its next advance and verifies the dumped total
// against the scalar fold of everything the session has been sent.
func (p *pipelineInstance) advance(s int, tr *tracer) (*serve.SessionSummary, error) {
	sess := p.sessions[s]
	body := sess.bodies[sess.next%len(sess.bodies)]
	req := tr.newReq()
	r := tr.begin("request", req, 0)
	defer func() { tr.end(r, 0) }()
	h := tr.begin("http_call", req, r)
	status, out, _, err := p.cl.do(http.MethodPost, p.topo.front+"/v1/pipelines/"+sess.id, body.body, "")
	tr.end(h, 0)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("advance %s: status %d: %s", sess.id, status, bytes.TrimSpace(out))
	}
	var resp serve.AdvanceResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, err
	}
	sess.next++
	for l := range sess.total {
		sess.total[l] += body.delta[l]
	}
	if len(resp.Records) != recordsPerAdvance || len(resp.Records[recordsPerAdvance-1].Dumps) != 1 {
		return nil, fmt.Errorf("advance %s: malformed response", sess.id)
	}
	if got := resp.Records[recordsPerAdvance-1].Dumps[0].Values; fmt.Sprint(got) != fmt.Sprint(sess.total) {
		return nil, fmt.Errorf("advance %s: total %w (the scalar fold of the records sent)", sess.id, errMismatch)
	}
	return &resp.Summary, nil
}

func (p *pipelineInstance) refs() *refTable { return p.table }

func (p *pipelineInstance) close() {
	p.cl.close()
	p.topo.close()
}

func (p *pipelineInstance) rep(d time.Duration, tr *tracer, layer *metricSet) repResult {
	w := beginWindow(p.topo, layer)
	misses, compiles := make([]uint64, pipelineSessions), make([]uint64, pipelineSessions)
	// Each client owns one session, so its state needs no lock.
	res := closedLoop(pipelineSessions, forDuration(d), func(c, _ int) error {
		sum, err := p.advance(c, tr)
		if err != nil {
			return err
		}
		misses[c] += sum.TraceMisses
		compiles[c] += sum.JITCompiles
		return nil
	})
	out := loadRep(res, res, p.slice)
	out.attempted, out.failed, out.mismatches = res.Sent, res.Failed, res.Mismatches
	for c := range misses {
		p.warmMisses += misses[c]
		p.warmCompiles += compiles[c]
	}
	if layer != nil {
		w.end(mean(res.LatMS))
		loadgenLayers(layer, res, loadResult{})
		layer.set("loadgen.latency_p99_ms", percentile(res.LatMS, 0.99))
		layer.set("serve.session_create_ms", median(p.createMS))
		layer.set("serve.session_advance_ms", tr.bestMS("http_call"))
		layer.set("serve.session_records_per_s", res.okPerS()*recordsPerAdvance)
		layer.set("serve.session_warm_trace_misses", float64(p.warmMisses))
		layer.set("serve.session_warm_jit_compiles", float64(p.warmCompiles))
		if err := p.replayDirect(tr, layer); err != nil {
			out.fail(err)
		}
	}
	return out
}

// replayDirect streams session 0's advance bodies through the compiled graph
// directly, the way serve's session plane does — Restore the parked state,
// Rewind/write/Run per record, Snapshot — so the traced run shows what an
// advance costs below HTTP.
func (p *pipelineInstance) replayDirect(tr *tracer, layer *metricSet) error {
	spec := mustSpec("racer")
	m, c, err := etlMachine(p.src, spec)
	if err != nil {
		return err
	}
	var parked []byte
	var runs []*machine.Stats
	for _, body := range p.sessions[0].bodies {
		req := tr.newReq()
		root := tr.begin("direct", req, 0)
		if parked != nil {
			sp := tr.begin("restore", req, root)
			err = m.Restore(parked)
			tr.end(sp, 0)
		}
		for _, rec := range body.records {
			if err != nil {
				break
			}
			sp := tr.begin("run", req, root)
			var st *machine.Stats
			if st, err = runRecord(m, c, rec); err == nil {
				tr.end(sp, st.MicroOps)
				cp := *st
				runs = append(runs, &cp)
			}
		}
		if err != nil {
			return err
		}
		sp := tr.begin("snapshot", req, root)
		parked = m.Snapshot()
		tr.end(sp, uint64(len(parked)))
		tr.end(root, 0)
	}
	statsLayers(layer, runs)
	layer.set("machine.run_ms", tr.meanMS("run"))
	layer.set("machine.ns_per_uop", tr.nsPerUnit("run"))
	layer.set("bench.unattributed_pct", tr.unattributedPct("direct"))
	return nil
}
