package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// sizes are the input sizes and loop parameters that differ between the real
// benchmark and the tier-1 smoke test, which runs every workload tiny.
type sizes struct {
	replayElems  int // sim-replay on racer
	coldElems    int // sim-coldrecipe
	simdramElems int // sim-replay on simdram (wide 4-word slabs)
	dynElems     int // sim-dynamic, and the snapshot probe
	qosElems     int // the qos-mixed batch job
	openRate     float64
	execRequests int // serve-small, cluster-routed: length of the request sequence before it repeats
	execSlice    int // serve-small, cluster-routed: requests per slice, about 0.1 s of the open loop
	pipeSlice    int // pipeline-stream: advances per slice, about 0.1 s
	qosSlice     int // qos-mixed: latency-class requests per slice, about 0.35 s
	probeIters   int // repetitions of each idle-node probe
	edMPUs       int // ring size of the multi-MPU probe
}

var fullSizes = sizes{
	replayElems: 4 << 20, simdramElems: 14_000_000, coldElems: 1 << 20, dynElems: 64 << 10, qosElems: 2 << 20,
	openRate: 300, execRequests: 4096, probeIters: 40, edMPUs: 16,
	execSlice: 32, pipeSlice: 64, qosSlice: 6,
}

var tinySizes = sizes{
	replayElems: 64 << 10, simdramElems: 128 << 10, coldElems: 64 << 10, dynElems: 4 << 10, qosElems: 4 << 10,
	openRate: 600, execRequests: 128, probeIters: 2, edMPUs: 4,
	execSlice: 8, pipeSlice: 8, qosSlice: 4,
}

// repResult is what one repetition of a workload reports.
type repResult struct {
	samples
	attempted, failed, mismatches int
	lat                           []float64 // the latencies behind p50/p90, for the tail note
	firstErr                      error
}

func (r *repResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// instance is one set-up of a workload: machines or servers built, reference
// table computed, sessions created, warm-up done.
type instance interface {
	// rep measures for about d. With a tracer it records spans and fills
	// the per-layer metrics it can read from outside the layers.
	rep(d time.Duration, tr *tracer, layer *metricSet) repResult
	// refs is the instance's reference table.
	refs() *refTable
	close()
}

// workloadDef is one named workload. Names are fixed: later issues cite them.
type workloadDef struct {
	name  string
	why   string
	setup func(seed int64, sz *sizes) (instance, error)
}

var allWorkloads = []*workloadDef{
	{"sim-replay", "straight-line kernels at 4 Mi (racer) and 14 M (simdram) elements: trace record, JIT replay and input scatter do the work, the interpreter almost none",
		func(seed int64, sz *sizes) (instance, error) {
			return newSim(seed,
				simGroup{backend: "racer", elems: sz.replayElems, kernels: []string{"vecadd", "vecxor", "relu", "abs", "clamp", "sign", "threshold", "sobelx", "manhattan"}},
				simGroup{backend: "simdram", elems: sz.simdramElems, kernels: []string{"vecadd", "relu", "sobelx"}})
		}},
	{"sim-coldrecipe", "traceable bodies whose recipe cache cannot be all-hit: the recorder runs every time and replay never does",
		func(seed int64, sz *sizes) (instance, error) {
			return newSim(seed,
				simGroup{backend: "racer", elems: sz.coldElems, kernels: []string{"vecmul", "mac", "conv1d3", "jacobi1d", "conv2d3x3", "softmax"}})
		}},
	{"sim-dynamic", "JUMP_COND bodies (gcd, crc32, ibert-sqrt, euclidean on four inputs each): every round interpreted, trace and JIT bypassed",
		func(seed int64, sz *sizes) (instance, error) {
			return newSim(seed,
				// The work of these loops depends on the data by a few percent;
				// four inputs per kernel keep a run's total near the mean.
				simGroup{backend: "racer", elems: sz.dynElems, kernels: []string{"gcd", "crc32", "ibert-sqrt", "euclidean"}, inputs: 4})
		}},
	{"serve-small", "one mpud node, 128-element requests: HTTP, admission, the coalescing window and marshalling dominate, the machine is about 2% of a request",
		func(seed int64, sz *sizes) (instance, error) { return newExec(seed, sz, false) }},
	{"cluster-routed", "the serve-small request stream through mpurouter in front of two one-machine nodes: routed minus direct is the router tier",
		func(seed int64, sz *sizes) (instance, error) { return newExec(seed, sz, true) }},
	{"pipeline-stream", "two resident etl.fbp sessions advanced 8 records at a time: restore, six MPUs with SEND/RECV barriers, snapshot-park",
		newPipeline},
	{"qos-mixed", "one machine shared by a resident gcd batch client and a latency-class client: preempt at a round boundary, snapshot, run, restore",
		newQoS},
}

func workloadByName(name string) *workloadDef {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// simGroup is a list of kernels run on one back end at one size, each on
// `inputs` different generated inputs (at least one).
type simGroup struct {
	backend string
	elems   int
	kernels []string
	inputs  int
}

// simInstance runs kernels in-process, one caller, closed loop:
// PrepareOn, Run, Finish with checking on, marshal, compare.
type simInstance struct {
	table    *refTable
	kernelOf []int // per table entry: its kernel, numbered across the groups
	machines map[string]*machine.Machine
}

func newSim(seed int64, groups ...simGroup) (instance, error) {
	s := &simInstance{table: newRefTable(), machines: map[string]*machine.Machine{}}
	kernels := 0
	for _, g := range groups {
		for i := 0; i < len(g.kernels)*max(g.inputs, 1); i++ {
			name, input := g.kernels[i%len(g.kernels)], int64(i/len(g.kernels))
			e, err := s.table.add(name, g.backend, g.elems, seed*64+input)
			if err != nil {
				return nil, err
			}
			s.kernelOf = append(s.kernelOf, kernels+i%len(g.kernels))
			if s.machines[e.spec.Name] == nil {
				m, err := machine.New(workloads.MachineConfigFor(e.runConfig()))
				if err != nil {
					return nil, err
				}
				s.machines[e.spec.Name] = m
			}
		}
		kernels += len(g.kernels)
	}
	return s, nil
}

func (s *simInstance) refs() *refTable { return s.table }
func (s *simInstance) close()          {}

// runKernel is the timed unit of every sim workload and of the direct-call
// replay of HTTP request bodies: it returns the stable stats encoding.
func runKernel(m *machine.Machine, e *refEntry, tr *tracer, root string) ([]byte, error) {
	req := tr.newReq()
	r := tr.begin(root, req, 0)
	defer func() { tr.end(r, 0) }()

	sp := tr.begin("prepare", req, r)
	p, err := workloads.PrepareOn(m, e.k, e.runConfig())
	tr.end(sp, 0)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("run", req, r)
	st, err := p.Machine.Run()
	if err != nil {
		tr.end(sp, 0)
		return nil, err
	}
	tr.end(sp, st.MicroOps)
	sp = tr.begin("finish", req, r)
	res, err := p.Finish(st)
	tr.end(sp, 0)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("marshal", req, r)
	got, err := json.Marshal(res.Stats)
	tr.end(sp, 0)
	return got, err
}

func (s *simInstance) rep(d time.Duration, tr *tracer, layer *metricSet) repResult {
	var out repResult
	cases := s.table.entries
	out.kernelMS, out.kernelOf = make([][]float64, len(cases)), s.kernelOf
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for k, e := range cases {
			out.attempted++
			t0 := time.Now()
			got, err := runKernel(s.machines[e.spec.Name], e, tr, "request")
			out.kernelMS[k] = append(out.kernelMS[k], msSince(t0))
			switch {
			case err != nil:
				out.fail(err)
			case !bytes.Equal(got, e.json):
				out.mismatches++
				out.fail(fmt.Errorf("%s: stats %w", e.key, errMismatch))
			}
		}
	}
	out.lat = out.kernelLatencies()
	if layer != nil {
		// Counts are per pass, read from the reference stats the timed results
		// were just compared with byte for byte, so they repeat exactly.
		var uops uint64
		for _, e := range cases {
			uops += e.stats.MicroOps
		}
		okPerS, _, _ := out.headline()
		layer.set("sim_uops_per_host_s", float64(uops)*okPerS/float64(len(cases)))
		kernelLayers(tr, layer, cases)
		layer.set("bench.unattributed_pct", tr.unattributedPct("request"))
	}
	return out
}

// kernelLayers fills what the kernel path reports wherever it runs: the
// engine mix and simulated totals of entries, a build_program probe per
// entry, and the timings of the spans runKernel recorded.
func kernelLayers(tr *tracer, layer *metricSet, entries []*refEntry) {
	for _, e := range entries {
		tr.timed("build_program", 0, func() {
			_, _, _ = workloads.BuildProgram(e.k, e.spec, e.simVRFs()) // errors surfaced by PrepareOn already
		})
	}
	statsLayers(layer, entryStats(entries))
	kernelSpanLayers(tr, layer)
}

func entryStats(entries []*refEntry) []*machine.Stats {
	out := make([]*machine.Stats, len(entries))
	for i, e := range entries {
		out[i] = &e.stats
	}
	return out
}

// statsLayers sums the engine mix and the simulated totals over runs.
func statsLayers(layer *metricSet, runs []*machine.Stats) {
	var rounds, hits uint64
	for _, st := range runs {
		rounds += st.Rounds
		hits += st.TraceHits
		layer.add("machine.rounds_interpreted", float64(st.TraceFallbacks))
		layer.add("machine.rounds_recorded", float64(st.TraceMisses))
		layer.add("machine.rounds_replayed", float64(st.TraceHits))
		layer.add("machine.rounds_jit_replayed", float64(st.JITReplays))
		layer.add("machine.jit_compiles", float64(st.JITCompiles))
		layer.add("machine.sim_cycles", float64(st.Cycles))
		layer.add("machine.sim_energy_pj", st.TotalEnergyPJ())
		layer.add("machine.sim_instructions", float64(st.Instructions))
		if st.TraceMisses >= 1 && st.TraceHits == 0 {
			layer.add("trace.recorded_unused", 1)
		}
	}
	if rounds > 0 {
		layer.set("machine.replay_share", float64(hits)/float64(rounds))
	}
}

// kernelSpanLayers derives the workloads.* and machine.* timings from the
// prepare/run/finish/marshal spans of runKernel and the build_program probe.
// The spans mix kernels of very different cost, so each is the mean per
// kernel execution: the layers then add up to the request exactly.
func kernelSpanLayers(tr *tracer, layer *metricSet) {
	build, prepare := tr.meanMS("build_program"), tr.meanMS("prepare")
	layer.set("workloads.build_program_ms", build)
	layer.set("workloads.prepare_ms", prepare)
	layer.set("workloads.prepare_self_ms", prepare-build)
	layer.set("workloads.finish_ms", tr.meanMS("finish"))
	layer.set("machine.run_ms", tr.meanMS("run"))
	layer.set("machine.ns_per_uop", tr.nsPerUnit("run"))
	layer.set("machine.stats_marshal_us", tr.meanMS("marshal")*1e3)
}
