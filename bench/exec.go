package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpu/internal/machine"
	"mpu/internal/serve"
	"mpu/internal/workloads"
)

// nproc bounds the client goroutines and connections of every workload.
var nproc = runtime.NumCPU()

// smallKernels are the 11 straight-line kernels plus vecmul, the mix of
// serve-small and cluster-routed.
var smallKernels = []string{"vecadd", "vecsub", "vecand", "vecxor", "relu", "abs", "clamp", "sign", "threshold", "sobelx", "manhattan", "vecmul"}

// execReq is one pre-built POST /v1/execute: its body, and the suffix a
// correct response must end with — the reference stats are the response's
// last field, so a suffix compare is a byte compare of the stats.
type execReq struct {
	body   []byte
	ref    *refEntry
	suffix []byte
}

func newExecReq(e *refEntry) (*execReq, error) {
	body, err := json.Marshal(serve.Request{
		Workload: e.k.Name, Backend: e.spec.Name, Elements: e.elems, Seed: e.seed, Check: true,
	})
	if err != nil {
		return nil, err
	}
	suffix := append(append([]byte(`"stats":`), e.json...), '}')
	return &execReq{body: body, ref: e, suffix: suffix}, nil
}

// execStream is a request sequence sent to one URL under one QoS class.
type execStream struct {
	url  string
	qos  string
	reqs []*execReq
}

// post sends rq and requires 200 with the reference stats.
func (rq *execReq) post(c *client, url, qos string) (http.Header, error) {
	status, body, hdr, err := c.do(http.MethodPost, url+"/v1/execute", rq.body, qos)
	switch {
	case err != nil:
		return nil, err
	case status != http.StatusOK:
		return nil, fmt.Errorf("%s: status %d: %s", rq.ref.key, status, bytes.TrimSpace(body))
	case !bytes.HasSuffix(body, rq.suffix):
		return nil, fmt.Errorf("%s: stats %w", rq.ref.key, errMismatch)
	}
	return hdr, nil
}

// caller returns the loadgen call for the stream: POST request base+i
// (cycling).
func (s *execStream) caller(c *client, tr *tracer, base int) callFunc {
	return func(_, i int) error {
		rq := s.reqs[(base+i)%len(s.reqs)]
		req := tr.newReq()
		r := tr.begin("request", req, 0)
		h := tr.begin("http_call", req, r)
		_, err := rq.post(c, s.url, s.qos)
		tr.end(h, 0)
		tr.end(r, 0)
		return err
	}
}

// execInstance is serve-small (one node, pool racer:mpu:2) or, routed,
// cluster-routed (a router in front of two racer:mpu:1 nodes): the same
// total machines and, for the same seed, byte-identical request bodies.
type execInstance struct {
	topo   *topology
	cl     *client
	table  *refTable
	stream execStream
	rate   float64
	slice  int
	seed   int64
	sent   int // requests issued so far, so phases continue the sequence
}

func newExec(seed int64, sz *sizes, routed bool) (instance, error) {
	pools := []string{"racer:mpu:2"}
	if routed {
		pools = []string{"racer:mpu:1", "racer:mpu:1"}
	}
	topo, err := startTopology(routed, serve.Config{}, pools...)
	if err != nil {
		return nil, err
	}
	x := &execInstance{topo: topo, cl: newClient(nproc), table: newRefTable(), rate: sz.openRate, slice: sz.execSlice, seed: seed}
	x.stream.url = topo.front
	// Uniform over the kernels, request seeds cycled over 64 values.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sz.execRequests; i++ {
		e, err := x.table.add(smallKernels[rng.Intn(len(smallKernels))], "racer", 128, seed*64+int64(i%64))
		if err == nil {
			var rq *execReq
			if rq, err = newExecReq(e); err == nil {
				x.stream.reqs = append(x.stream.reqs, rq)
			}
		}
		if err != nil {
			x.close()
			return nil, err
		}
	}
	// Warm-up: connections open, every pool machine has run something.
	closedLoop(nproc, forDuration(50*time.Millisecond), x.stream.caller(x.cl, nil, 0))
	return x, nil
}

func (x *execInstance) refs() *refTable { return x.table }

func (x *execInstance) close() {
	x.cl.close()
	x.topo.close()
}

func (x *execInstance) rep(d time.Duration, tr *tracer, layer *metricSet) repResult {
	w := beginWindow(x.topo, layer)

	// Closed phase: nproc callers back to back give the throughput.
	closed := closedLoop(nproc, forDuration(d*2/5), x.stream.caller(x.cl, tr, x.sent))
	x.sent += closed.Sent
	// Open phase: a Poisson schedule gives latency from the due time.
	sched := poissonSchedule(x.seed+int64(x.sent), x.rate, d*3/5)
	open := openLoop(nproc, sched, x.stream.caller(x.cl, tr, x.sent))
	x.sent += open.Sent

	out := loadRep(closed, open, x.slice)
	if layer != nil {
		w.end(mean(closed.LatMS))
		loadgenLayers(layer, closed, open)
		if err := replayDirect(tr, layer, x.stream.reqs[:min(200, len(x.stream.reqs))]); err != nil {
			out.fail(err)
		}
	}
	return out
}

// loadRep combines a throughput loop and a latency loop into a repetition's
// result: per slice, the rate of the first and the latency percentiles of
// the second.
func loadRep(rate, latency loadResult, slice int) repResult {
	out := repResult{
		lat:        latency.LatMS,
		attempted:  rate.Sent + latency.Sent,
		failed:     rate.Failed + latency.Failed,
		mismatches: rate.Mismatches + latency.Mismatches,
	}
	out.okPerS = rate.slices(slice).okPerS
	l := latency.slices(slice)
	out.p50, out.p90 = l.p50, l.p90
	if out.firstErr = rate.FirstErr; out.firstErr == nil {
		out.firstErr = latency.FirstErr
	}
	return out
}

// replayDirect runs the same request bodies through the kernel path
// directly — PrepareOn, Run, Finish, Marshal on a machine of the pool's
// configuration — so the traced run shows what serve adds over the machine.
func replayDirect(tr *tracer, layer *metricSet, reqs []*execReq) error {
	m, err := machine.New(workloads.MachineConfigFor(reqs[0].ref.runConfig()))
	if err != nil {
		return err
	}
	entries := make([]*refEntry, len(reqs))
	for i, rq := range reqs {
		entries[i] = rq.ref
		if _, err := runKernel(m, rq.ref, tr, "direct"); err != nil {
			return fmt.Errorf("direct replay of %s: %w", rq.ref.key, err)
		}
	}
	kernelLayers(tr, layer, entries)
	layer.set("bench.unattributed_pct", tr.unattributedPct("direct"))
	return nil
}

// loadgenLayers reports the validity of the load itself: counts, how late the
// open-loop generator ran, and the tail the host cannot repeat.
func loadgenLayers(layer *metricSet, closed, open loadResult) {
	layer.set("loadgen.sent", float64(closed.Sent+open.Sent))
	layer.set("loadgen.ok", float64(closed.OK+open.OK))
	layer.set("loadgen.failed", float64(closed.Failed+open.Failed))
	layer.set("loadgen.lag_ms_p90", percentile(open.LagMS, 0.9))
	layer.set("loadgen.latency_p99_ms", percentile(open.LatMS, 0.99))
}

// window brackets a traced repetition on a topology: public /metrics before
// and after, and a 100 ms sampler for the gauges whose maximum matters.
type window struct {
	topo       *topology
	layer      *metricSet
	before     prom
	rtBefore   prom
	stop       chan struct{}
	sampled    sync.WaitGroup
	depthMax   float64
	parkedMax  float64
	hedges0    uint64
	wins0      uint64
	retries0   uint64
	sessionMax float64
}

func beginWindow(topo *topology, layer *metricSet) *window {
	if layer == nil {
		return nil
	}
	w := &window{topo: topo, layer: layer, before: scrapeAll(topo.nodes), stop: make(chan struct{})}
	if topo.rt != nil {
		w.rtBefore = scrape(topo.rt)
		w.hedges0, w.wins0, w.retries0 = topo.rt.Hedging()
	}
	w.sampled.Add(1)
	go func() {
		defer w.sampled.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				p := scrapeAll(topo.nodes)
				w.depthMax = max(w.depthMax, p.max("mpud_queue_depth"))
				w.parkedMax = max(w.parkedMax, p.sum("mpud_parked_bytes"))
				w.sessionMax = max(w.sessionMax, p.sum("mpud_session_snapshot_bytes"))
			}
		}
	}()
	return w
}

// end closes the window and fills the serve.* and router.* layers. rttMean
// is the closed-loop clients' mean round trip, which the handlers' mean is
// subtracted from.
func (w *window) end(rttMean float64) {
	close(w.stop)
	w.sampled.Wait()
	l := w.layer

	d := scrapeAll(w.topo.nodes).minus(w.before)
	nodeHandler := d.meanMS("mpud_request_seconds")
	l.set("serve.handler_ms_mean", nodeHandler)
	l.set("serve.transport_ms", rttMean-nodeHandler)
	if n := d.sum("mpud_batch_size_count"); n > 0 {
		l.set("serve.batch_size_mean", d.sum("mpud_batch_size_sum")/n)
	}
	l.set("serve.queue_depth_max", w.depthMax)
	l.set("serve.refused_503", d.sum("mpud_backpressure_total"))
	l.set("serve.trace_hits", d.sum("mpud_trace_hits_total"))
	l.set("serve.trace_misses", d.sum("mpud_trace_misses_total"))
	l.set("serve.trace_fallbacks", d.sum("mpud_trace_fallbacks_total"))
	l.set("serve.jit_compiles", d.sum("mpud_jit_compiles_total"))
	l.set("serve.jit_replays", d.sum("mpud_jit_replays_total"))
	l.set("serve.preemptions", d.sum("mpud_preemptions_total"))
	l.set("serve.preempt_spills", d.sum("mpud_preempt_spills_total"))
	l.set("serve.restores", d.sum("mpud_restore_seconds_count"))
	l.set("serve.restore_ms_mean", d.meanMS("mpud_restore_seconds"))
	l.set("serve.parked_bytes_max", w.parkedMax)
	l.set("serve.session_parks", d.sum("mpud_session_parks_total"))
	l.set("serve.session_snapshot_bytes", w.sessionMax)

	if rt := w.topo.rt; rt != nil {
		rd := scrape(rt).minus(w.rtBefore)
		handler := rd.meanMS("mpurouter_request_seconds")
		l.set("router.handler_ms_mean", handler)
		l.set("router.self_ms", handler-nodeHandler)
		hedges, wins, retries := rt.Hedging()
		l.set("router.hedges", float64(hedges-w.hedges0))
		l.set("router.hedge_wins", float64(wins-w.wins0))
		l.set("router.retries", float64(retries-w.retries0))
		if total := rd.sum("mpurouter_node_requests_total"); total > 0 {
			l.set("router.hedge_rate", float64(hedges-w.hedges0)/total)
			l.set("router.node_share_max", rd.max("mpurouter_node_requests_total")/total)
		}
		l.set("router.node_unready", rd.sum("mpurouter_node_unready_total"))
	}
}

// qosThink is how long the latency client waits after a reply. Between two
// batch jobs the machine idles for the coalescing window (2 ms); a client
// that never paused would fill each such gap with a dozen sub-millisecond
// requests, and those would crowd the preempting ones out of the median.
const qosThink = 5 * time.Millisecond

// qosInstance is qos-mixed: one node with a single machine, a resident
// closed-loop batch client and a closed-loop latency-class client on one
// connection each. Every latency request preempts the batch job at its next
// round boundary, so the batch job advances one round per latency request:
// the preemption plane at its highest pressure. (Poisson arrivals at a few
// hertz, as first planned, leave a ten-second run some fifty latencies
// spread evenly over a round's length, and no percentile of those repeats.)
type qosInstance struct {
	topo    *topology
	cl      *client
	table   *refTable
	batch   execStream
	latency execStream
	slice   int
	sent    int
}

func newQoS(seed int64, sz *sizes) (instance, error) {
	topo, err := startTopology(false, serve.Config{MaxElements: sz.qosElems}, "racer:mpu:1")
	if err != nil {
		return nil, err
	}
	q := &qosInstance{topo: topo, cl: newClient(nproc), table: newRefTable(), slice: sz.qosSlice}
	q.batch = execStream{url: topo.front}
	q.latency = execStream{url: topo.front, qos: serve.ClassLatency}
	fill := func(s *execStream, kernel string, elems, n int) error {
		for i := 0; i < n; i++ {
			e, err := q.table.add(kernel, "racer", elems, seed*64+int64(i))
			if err != nil {
				return err
			}
			rq, err := newExecReq(e)
			if err != nil {
				return err
			}
			s.reqs = append(s.reqs, rq)
		}
		return nil
	}
	if err := fill(&q.batch, "gcd", sz.qosElems, 1); err == nil {
		err = fill(&q.latency, "vecadd", 256, 16)
	}
	if err != nil {
		q.close()
		return nil, err
	}
	closedLoop(1, forDuration(50*time.Millisecond), q.latency.caller(q.cl, nil, 0))
	return q, nil
}

func (q *qosInstance) refs() *refTable { return q.table }

func (q *qosInstance) close() {
	q.cl.close()
	q.topo.close()
}

func (q *qosInstance) rep(d time.Duration, tr *tracer, layer *metricSet) repResult {
	w := beginWindow(q.topo, layer)

	// The latency client keeps going until the last batch job has ended, so
	// every job runs under the same pressure from start to finish.
	var batch, lat loadResult
	var batchDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		batch = closedLoop(1, forDuration(d), q.batch.caller(q.cl, tr, q.sent))
		batchDone.Store(true)
	}()
	go func() {
		defer wg.Done()
		lat = closedLoop(1, func(time.Duration) bool {
			time.Sleep(qosThink)
			return !batchDone.Load()
		}, q.latency.caller(q.cl, tr, q.sent))
	}()
	wg.Wait()
	q.sent += batch.Sent + lat.Sent

	out := loadRep(batch, lat, q.slice)
	out.okPerS = batch.slices(1).okPerS // a job is as long as a slice of latency requests
	if layer != nil {
		w.end(mean(slices.Concat(batch.LatMS, lat.LatMS)))
		loadgenLayers(layer, batch, lat)
		layer.set("batch_jobs_per_s", batch.okPerS())
		if err := replayDirect(tr, layer, q.batch.reqs); err != nil {
			out.fail(err)
		}
	}
	return out
}
