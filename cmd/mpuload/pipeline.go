package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"mpu/internal/exp"
	"mpu/internal/serve"
)

// The -pipeline study: instead of independent /v1/execute requests, the
// generator opens persistent pipeline sessions from a .fbp graph and streams
// records through them — the session plane's open-loop counterpart to the
// execute studies. Each record is one advance request (restore → Rewind →
// run → park), so the measured latency is the full per-record cost of a
// parked session, including the snapshot round-trip that keeps sessions from
// pinning machines. The recompilation account splits cold (each session's
// first request, where traces record and the JIT compiles) from warm
// (everything after), because the steady-state claim is warm == zero.

// pipelineStudy is the -pipeline study JSON.
type pipelineStudy struct {
	Config struct {
		Pipeline          string  `json:"pipeline"`
		Backend           string  `json:"backend"`
		Sessions          int     `json:"sessions"`
		RecordsPerRequest int     `json:"records_per_request"`
		Duration          string  `json:"duration"`
		RateHz            float64 `json:"rate_hz"` // 0 = closed loop
		Nodes             int     `json:"nodes"`
	} `json:"config"`
	Placement struct {
		MPUs  int `json:"mpus"`
		Lanes int `json:"lanes"`
		Hops  int `json:"hops"`
	} `json:"placement"`
	Totals struct {
		Requests uint64 `json:"requests"`
		Records  uint64 `json:"records"`
		Errors   uint64 `json:"errors"`
		Shed     uint64 `json:"shed"`
	} `json:"totals"`
	Throughput struct {
		RecordsPerSec float64 `json:"records_per_sec"`
	} `json:"throughput"`
	RecordLatencyMS struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"record_latency_ms"`
	Recompilation struct {
		ColdTraceMisses uint64 `json:"cold_trace_misses"`
		ColdJITCompiles uint64 `json:"cold_jit_compiles"`
		WarmTraceMisses uint64 `json:"warm_trace_misses"`
		WarmJITCompiles uint64 `json:"warm_jit_compiles"`
	} `json:"recompilation"`
}

// pipeClient wraps the HTTP plumbing shared by the study and the bench.
type pipeClient struct {
	client *http.Client
	base   string
}

func (pc *pipeClient) do(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, pc.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := pc.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// createPipeline opens one session and returns the create response.
func (pc *pipeClient) createPipeline(source, backend string) (*serve.PipelineResponse, error) {
	status, body, err := pc.do(http.MethodPost, "/v1/pipelines", serve.PipelineRequest{Source: source, Backend: backend})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("create pipeline: status %d: %s", status, body)
	}
	var created serve.PipelineResponse
	if err := json.Unmarshal(body, &created); err != nil {
		return nil, err
	}
	return &created, nil
}

// advancePipeline streams records records through the session, writing a
// varying vector into reg 0 of the input node before each record.
func (pc *pipeClient) advancePipeline(id, inputNode string, lanes, records int, base uint64) (*serve.AdvanceResponse, error) {
	recs := make([]serve.PipelineRecord, records)
	for i := range recs {
		vals := make([]uint64, lanes)
		for l := range vals {
			vals[l] = base + uint64(i*lanes+l)
		}
		recs[i] = serve.PipelineRecord{Sets: []serve.PipelineSet{{Node: inputNode, Reg: 0, Values: vals}}}
	}
	status, body, err := pc.do(http.MethodPost, "/v1/pipelines/"+id, serve.AdvanceRequest{Records: recs})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("advance %s: status %d: %s", id, status, body)
	}
	var resp serve.AdvanceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (pc *pipeClient) closePipeline(id string) error {
	status, body, err := pc.do(http.MethodDelete, "/v1/pipelines/"+id, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("close %s: status %d: %s", id, status, body)
	}
	return nil
}

// runPipelineStudy streams a .fbp pipeline for the study duration and
// reports per-record latency percentiles and the recompilation account.
func runPipelineStudy(o opts, path string) (*pipelineStudy, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if o.url != "" && o.nodes > 0 {
		return nil, fmt.Errorf("-nodes and -url are mutually exclusive")
	}
	if o.sessions <= 0 {
		o.sessions = 1
	}
	if o.recordsPer <= 0 {
		o.recordsPer = 1
	}

	url := o.url
	var shutdown func() error
	if url == "" {
		if o.nodes > 0 {
			url, _, shutdown, err = selfHostCluster(o, nil)
		} else {
			url, shutdown, err = selfHost(o, 0)
		}
		if err != nil {
			return nil, err
		}
		defer shutdown()
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	defer transport.CloseIdleConnections()
	pc := &pipeClient{client: &http.Client{Timeout: 2 * time.Minute, Transport: transport}, base: url}

	s := &pipelineStudy{}
	s.Config.Pipeline = path
	s.Config.Backend = o.pipeBackend
	s.Config.Sessions = o.sessions
	s.Config.RecordsPerRequest = o.recordsPer
	s.Config.Duration = o.duration.String()
	s.Config.RateHz = o.rate
	s.Config.Nodes = o.nodes

	// One session per stream; the input node is the first placed node (the
	// graph's source — placement is first-appearance order).
	type stream struct {
		id    string
		input string
		lanes int
		queue chan time.Time // arrival times awaiting service (open loop)
		first bool           // first advance not yet issued (cold)
	}
	streams := make([]*stream, o.sessions)
	for i := range streams {
		created, err := pc.createPipeline(string(src), o.pipeBackend)
		if err != nil {
			return nil, err
		}
		if len(created.Nodes) == 0 {
			return nil, fmt.Errorf("pipeline %s placed no nodes", created.ID)
		}
		streams[i] = &stream{
			id: created.ID, input: created.Nodes[0].Name, lanes: created.Lanes,
			queue: make(chan time.Time, 64), first: true,
		}
		if i == 0 {
			s.Placement.MPUs = created.MPUs
			s.Placement.Lanes = created.Lanes
			s.Placement.Hops = created.Hops
		}
	}
	defer func() {
		for _, st := range streams {
			pc.closePipeline(st.id)
		}
	}()

	var (
		mu        sync.Mutex
		latencies []float64 // per-record seconds, successful requests only
	)
	stop := make(chan struct{})
	start := time.Now()
	go func() {
		time.Sleep(o.duration)
		close(stop)
	}()

	// serve one advance request on a stream; t0 is the moment the record
	// became due (arrival time in open loop, issue time in closed loop), so
	// queue wait counts against the latency — the honest open-loop measure.
	serveOne := func(st *stream, t0 time.Time, base uint64) {
		resp, err := pc.advancePipeline(st.id, st.input, st.lanes, o.recordsPer, base)
		sec := time.Since(t0).Seconds() / float64(o.recordsPer)
		mu.Lock()
		defer mu.Unlock()
		s.Totals.Requests++
		if err != nil {
			s.Totals.Errors++
			return
		}
		s.Totals.Records += uint64(resp.Summary.Records)
		for i := 0; i < resp.Summary.Records; i++ {
			latencies = append(latencies, sec)
		}
		if st.first {
			st.first = false
			s.Recompilation.ColdTraceMisses += resp.Summary.TraceMisses
			s.Recompilation.ColdJITCompiles += resp.Summary.JITCompiles
		} else {
			s.Recompilation.WarmTraceMisses += resp.Summary.TraceMisses
			s.Recompilation.WarmJITCompiles += resp.Summary.JITCompiles
		}
	}

	var wg sync.WaitGroup
	for si, st := range streams {
		wg.Add(1)
		go func(si int, st *stream) {
			defer wg.Done()
			for i := 0; ; i++ {
				base := uint64(si*1_000_000 + i)
				if o.rate > 0 {
					select {
					case <-stop:
						return
					case t0 := <-st.queue:
						serveOne(st, t0, base)
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
					serveOne(st, time.Now(), base)
				}
			}
		}(si, st)
	}
	if o.rate > 0 {
		// Open loop: Poisson arrivals at the aggregate rate, round-robin
		// across sessions. A session whose bounded queue is full sheds the
		// arrival — a session admits one advance at a time, so backlog
		// beyond the queue means the offered rate exceeds its service rate.
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			next := time.Now()
			for i := 0; ; i++ {
				next = next.Add(time.Duration(rng.ExpFloat64() / o.rate * float64(time.Second)))
				if d := time.Until(next); d > 0 {
					select {
					case <-stop:
						return
					case <-time.After(d):
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				select {
				case streams[i%len(streams)].queue <- time.Now():
				default:
					mu.Lock()
					s.Totals.Shed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	s.Throughput.RecordsPerSec = float64(s.Totals.Records) / elapsed.Seconds()
	pct := func(p float64) float64 { return exp.Percentile(latencies, p) * 1e3 }
	s.RecordLatencyMS.P50 = pct(0.50)
	s.RecordLatencyMS.P90 = pct(0.90)
	s.RecordLatencyMS.P99 = pct(0.99)
	s.RecordLatencyMS.Max = pct(1.0)

	fmt.Printf("mpuload: pipeline %s on %s: %d sessions, %d records in %.1fs (%.1f rec/s), "+
		"record p50/p90/p99 %.2f/%.2f/%.2f ms, warm misses %d, warm JIT %d, shed %d, errors %d\n",
		path, o.pipeBackend, o.sessions, s.Totals.Records, elapsed.Seconds(), s.Throughput.RecordsPerSec,
		s.RecordLatencyMS.P50, s.RecordLatencyMS.P90, s.RecordLatencyMS.P99,
		s.Recompilation.WarmTraceMisses, s.Recompilation.WarmJITCompiles, s.Totals.Shed, s.Totals.Errors)
	return s, nil
}

// pipelineBenchSource is the bench's streaming graph: a source that splits
// the record register feeding a resident accumulator — the minimal shape
// that exercises cross-MPU rendezvous, parked state, and warm-trace replay.
const pipelineBenchSource = "src(Split) OUT -> IN total(Reduce)\n" +
	"'1' -> REGS src\n" +
	"'add' -> OP total\n"

// pipelineBench is the PR 10 acceptance suite. Phase one streams >= 1000
// records through one session across many separate HTTP requests and holds
// the steady-state claim to its floor: after the first request, zero trace
// misses and zero JIT compiles — every record rides traces recorded during
// record one, across parks and restores. Phase two streams the same session
// closed-loop while a latency-class burst arrives on /v1/execute, and
// requires the burst to be absorbed without a single refusal — sessions
// park between requests, so pipeline streaming never pins the machines the
// latency class needs.
func pipelineBench(out string) error {
	if out == "" {
		out = "BENCH_pr10.json"
	}
	const (
		steadyRequests = 125
		recordsPerReq  = 8 // steadyRequests * recordsPerReq = 1000 records
		burstN         = 40
		burstClients   = 4
	)
	var bench struct {
		Config struct {
			Pools             string `json:"pools"`
			Backend           string `json:"backend"`
			SteadyRequests    int    `json:"steady_requests"`
			RecordsPerRequest int    `json:"records_per_request"`
			BurstRequests     int    `json:"burst_requests"`
		} `json:"config"`
		Steady struct {
			Records         uint64  `json:"records"`
			ColdTraceMisses uint64  `json:"cold_trace_misses"`
			ColdJITCompiles uint64  `json:"cold_jit_compiles"`
			WarmTraceMisses uint64  `json:"warm_trace_misses"`
			WarmJITCompiles uint64  `json:"warm_jit_compiles"`
			RecordP50MS     float64 `json:"record_p50_ms"`
			RecordP99MS     float64 `json:"record_p99_ms"`
			RecordsPerSec   float64 `json:"records_per_sec"`
		} `json:"steady"`
		Burst struct {
			LatencyOK       uint64  `json:"latency_ok"`
			LatencyRefused  uint64  `json:"latency_refused"`
			LatencyP99MS    float64 `json:"latency_p99_ms"`
			PipelineRecords uint64  `json:"pipeline_records_during_burst"`
			PipelineErrors  uint64  `json:"pipeline_errors"`
		} `json:"burst"`
		Floors struct {
			MinRecords        uint64 `json:"min_records"`
			MaxWarmMisses     uint64 `json:"max_warm_trace_misses"`
			MaxWarmJIT        uint64 `json:"max_warm_jit_compiles"`
			MaxBurstRefusals  uint64 `json:"max_burst_refusals"`
			MaxPipelineErrors uint64 `json:"max_pipeline_errors"`
		} `json:"floors"`
	}
	bench.Config.Pools = "racer:mpu:2"
	bench.Config.Backend = "racer"
	bench.Config.SteadyRequests = steadyRequests
	bench.Config.RecordsPerRequest = recordsPerReq
	bench.Config.BurstRequests = burstN
	bench.Floors.MinRecords = 1000
	bench.Floors.MaxBurstRefusals = 0
	bench.Floors.MaxPipelineErrors = 0

	o := opts{pools: bench.Config.Pools, queue: 64, maxParked: 8}
	url, shutdown, err := selfHost(o, 0)
	if err != nil {
		return err
	}
	defer shutdown()
	transport := &http.Transport{MaxIdleConnsPerHost: 16}
	defer transport.CloseIdleConnections()
	client := &http.Client{Timeout: 2 * time.Minute, Transport: transport}
	pc := &pipeClient{client: client, base: url}

	// ---- Phase 1: steady stream, recompilation floor -----------------------
	created, err := pc.createPipeline(pipelineBenchSource, "racer")
	if err != nil {
		return err
	}
	input := created.Nodes[0].Name
	var latencies []float64
	steadyStart := time.Now()
	for r := 0; r < steadyRequests; r++ {
		t0 := time.Now()
		resp, err := pc.advancePipeline(created.ID, input, created.Lanes, recordsPerReq, uint64(r))
		if err != nil {
			return fmt.Errorf("steady request %d: %w", r, err)
		}
		latencies = append(latencies, time.Since(t0).Seconds()/recordsPerReq)
		bench.Steady.Records += uint64(resp.Summary.Records)
		if r == 0 {
			bench.Steady.ColdTraceMisses = resp.Summary.TraceMisses
			bench.Steady.ColdJITCompiles = resp.Summary.JITCompiles
		} else {
			bench.Steady.WarmTraceMisses += resp.Summary.TraceMisses
			bench.Steady.WarmJITCompiles += resp.Summary.JITCompiles
		}
	}
	steadySec := time.Since(steadyStart).Seconds()
	bench.Steady.RecordP50MS = exp.Percentile(latencies, 0.50) * 1e3
	bench.Steady.RecordP99MS = exp.Percentile(latencies, 0.99) * 1e3
	bench.Steady.RecordsPerSec = float64(bench.Steady.Records) / steadySec

	// ---- Phase 2: latency-class burst against a streaming session ----------
	burstStop := make(chan struct{})
	var pipeWG sync.WaitGroup
	pipeWG.Add(1)
	go func() {
		defer pipeWG.Done()
		for i := steadyRequests; ; i++ {
			select {
			case <-burstStop:
				return
			default:
			}
			resp, err := pc.advancePipeline(created.ID, input, created.Lanes, recordsPerReq, uint64(i))
			if err != nil {
				bench.Burst.PipelineErrors++
				return
			}
			bench.Burst.PipelineRecords += uint64(resp.Summary.Records)
		}
	}()

	var (
		burstMu  sync.Mutex
		burstLat []float64
	)
	var burstWG sync.WaitGroup
	for c := 0; c < burstClients; c++ {
		burstWG.Add(1)
		go func(c int) {
			defer burstWG.Done()
			for i := c; i < burstN; i += burstClients {
				body, _ := json.Marshal(map[string]any{
					"workload": "vecadd", "backend": "racer", "elements": 128, "seed": i, "check": true,
				})
				t0 := time.Now()
				status, _, err := post(client, url+"/v1/execute", "", serve.ClassLatency, body)
				sec := time.Since(t0).Seconds()
				burstMu.Lock()
				if err == nil && status == http.StatusOK {
					bench.Burst.LatencyOK++
					burstLat = append(burstLat, sec)
				} else {
					bench.Burst.LatencyRefused++
				}
				burstMu.Unlock()
			}
		}(c)
	}
	burstWG.Wait()
	close(burstStop)
	pipeWG.Wait()
	bench.Burst.LatencyP99MS = exp.Percentile(burstLat, 0.99) * 1e3
	if err := pc.closePipeline(created.ID); err != nil {
		return err
	}

	// ---- Floors ------------------------------------------------------------
	if bench.Steady.Records < bench.Floors.MinRecords {
		return fmt.Errorf("floor: %d records streamed, need >= %d", bench.Steady.Records, bench.Floors.MinRecords)
	}
	if bench.Steady.WarmTraceMisses > bench.Floors.MaxWarmMisses {
		return fmt.Errorf("floor: %d trace misses after the first request — sessions are recompiling", bench.Steady.WarmTraceMisses)
	}
	if bench.Steady.WarmJITCompiles > bench.Floors.MaxWarmJIT {
		return fmt.Errorf("floor: %d JIT compiles after the first request — sessions are recompiling", bench.Steady.WarmJITCompiles)
	}
	if bench.Burst.LatencyRefused > bench.Floors.MaxBurstRefusals {
		return fmt.Errorf("floor: %d latency-class requests refused during the burst — pipeline streaming is pinning machines", bench.Burst.LatencyRefused)
	}
	if bench.Burst.PipelineErrors > bench.Floors.MaxPipelineErrors {
		return fmt.Errorf("floor: %d pipeline errors under concurrent burst", bench.Burst.PipelineErrors)
	}

	if err := exp.WriteJSON(out, &bench); err != nil {
		return err
	}
	fmt.Printf("mpuload: pipeline-bench ok: %d records over %d requests (warm misses %d, warm JIT %d), "+
		"record p50/p99 %.2f/%.2f ms; burst %d/%d ok at p99 %.1f ms with %d pipeline records alongside; wrote %s\n",
		bench.Steady.Records, steadyRequests, bench.Steady.WarmTraceMisses, bench.Steady.WarmJITCompiles,
		bench.Steady.RecordP50MS, bench.Steady.RecordP99MS,
		bench.Burst.LatencyOK, burstN, bench.Burst.LatencyP99MS, bench.Burst.PipelineRecords, out)
	return nil
}
