package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"

	"mpu/internal/apps"
	"mpu/internal/backends"
	"mpu/internal/fbp"
	"mpu/internal/isa"
	"mpu/internal/lint"
	"mpu/internal/lint/comm"
	"mpu/internal/machine"
	"mpu/internal/micro"
	"mpu/internal/recipe"
	"mpu/internal/serve"
	"mpu/internal/vrf"
	"mpu/internal/workloads"
)

// Idle-system probes: each times one public call of one layer with nothing
// else running, in the traced run only. They do not depend on the workload,
// so every workload's traced run reports the same probes; they are the
// per-layer numbers a later change to that layer should move first.

// runProbes records every probe into tr and fills the metrics derived from
// them.
func runProbes(tr *tracer, layer *metricSet, seed int64, sz *sizes) error {
	n := sz.probeIters
	for _, probe := range []func(*tracer, int64, *sizes, int) error{
		probeRecipe, probeVRF, probeToolchain, probeMachine, probeSnapshot, probeETL, probeMultiMPU, probeServe, probeRouter,
	} {
		if err := probe(tr, seed, sz, n); err != nil {
			return err
		}
	}
	for _, m := range []struct {
		metric, span string
		scale        float64 // span milliseconds to the metric's unit
	}{
		{"recipe.expand_resolved_us", "expand_resolved", 1e3},
		{"vrf.compile_resolved_us_64", "compile_resolved_64", 1e3},
		{"vrf.compile_resolved_us_256", "compile_resolved_256", 1e3},
		{"lint.preflight_us", "lint_preflight", 1e3},
		{"lint.comm_spmd_us", "lint_comm_spmd", 1e3},
		{"isa.decode_program_us", "decode_program", 1e3},
		{"fbp.compile_ms", "fbp_compile", 1},
		{"machine.new_ms", "machine_new", 1},
		{"machine.reset_ms", "machine_reset", 1},
		{"machine.steady_run_racer_ms", "steady_run_racer", 1},
		{"machine.steady_run_simdram_ms", "steady_run_simdram", 1},
		{"machine.snapshot_ms", "snapshot", 1},
		{"machine.restore_ms", "restore", 1},
		{"machine.snapshot_etl_ms", "snapshot_etl", 1},
		{"machine.restore_etl_ms", "restore_etl", 1},
		{"machine.multimpu_run_w1_ms", "multimpu_run_w1", 1},
		{"machine.multimpu_run_w0_ms", "multimpu_run_w0", 1},
		{"serve.healthz_rtt_ms", "healthz", 1},
		{"serve.exec_rtt_batch_ms", "exec_rtt_batch", 1},
		{"serve.exec_rtt_latency_ms", "exec_rtt_latency", 1},
		{"serve.direct_service_ms", "direct_service", 1},
	} {
		layer.set(m.metric, tr.bestMS(m.span)*m.scale)
	}
	for _, lanes := range []string{"64", "256"} {
		for _, engine := range []string{"exec_plane", "exec_resolved", "run_compiled"} {
			layer.set("vrf."+engine+"_ns_per_uop_"+lanes, tr.nsPerUnit(engine+"_"+lanes))
		}
	}
	layer.set("machine.snapshot_bytes", float64(snapshotBytes(tr, "snapshot")))
	layer.set("machine.snapshot_etl_bytes", float64(snapshotBytes(tr, "snapshot_etl")))
	layer.set("serve.coalesce_wait_ms", layer.get("serve.exec_rtt_batch_ms")-layer.get("serve.exec_rtt_latency_ms"))
	layer.set("serve.overhead_ms", layer.get("serve.exec_rtt_latency_ms")-layer.get("serve.direct_service_ms"))
	layer.set("router.overhead_ms", tr.bestMS("routed")-tr.bestMS("direct_owner"))
	return nil
}

// snapshotBytes reads the size the snapshot spans carry as their units.
func snapshotBytes(tr *tracer, name string) uint64 {
	for i := range tr.spans {
		if tr.spans[i].Name == name {
			return tr.spans[i].Units
		}
	}
	return 0
}

func mustSpec(name string) *backends.Spec {
	spec, err := backends.ByName(name)
	if err != nil {
		panic(err) // the names are literals of this package
	}
	return spec
}

// probeRecipe times cold recipe.ExpandResolved on MUL. The expansion is
// memoised process-wide per instruction, so each sample uses a register
// triple no kernel uses.
func probeRecipe(tr *tracer, _ int64, _ *sizes, n int) error {
	caps := mustSpec("racer").Caps
	var err error
	for i := 0; i < n && i < 64 && err == nil; i++ {
		in := isa.Mul(32+i%8, 40+i/8, 55)
		tr.timed("expand_resolved", 0, func() { _, _, err = recipe.ExpandResolved(caps, in) })
	}
	return err
}

// probeVRF runs the MUL+ADD micro-op stream through the three executors —
// plane-at-a-time ExecAll, slot-resolved ExecAllResolved, and the compiled
// closure chain — at racer's 64 lanes and simdram's 256, the table a choice
// of one engine per geometry needs.
func probeVRF(tr *tracer, seed int64, _ *sizes, n int) error {
	for _, g := range []struct{ backend, lanes string }{{"racer", "64"}, {"simdram", "256"}} {
		spec := mustSpec(g.backend)
		var ops []micro.Op
		var rs []micro.ResolvedOp
		for _, in := range []isa.Instr{isa.Mul(1, 2, 3), isa.Add(3, 4, 5)} {
			o, r, err := recipe.ExpandResolved(spec.Caps, in)
			if err != nil {
				return err
			}
			ops, rs = append(ops, o...), append(rs, r...)
		}
		v := vrf.New(spec.Lanes)
		rng := rand.New(rand.NewSource(seed))
		vals := make([]uint64, spec.Lanes)
		for r := 1; r <= 5; r++ {
			for l := range vals {
				vals[l] = rng.Uint64()
			}
			v.WriteReg(r, vals)
		}
		units := uint64(len(ops))
		var c *vrf.CompiledExec
		for i := 0; i < n; i++ {
			tr.timed("exec_plane_"+g.lanes, units, func() { v.ExecAll(ops) })
			tr.timed("exec_resolved_"+g.lanes, units, func() { v.ExecAllResolved(rs) })
			tr.timed("compile_resolved_"+g.lanes, 0, func() { c = vrf.CompileResolved(rs, spec.Lanes) })
			if c == nil {
				return fmt.Errorf("vrf.CompileResolved refused the MUL+ADD stream at %s lanes", g.lanes)
			}
			tr.timed("run_compiled_"+g.lanes, units, func() { v.RunCompiled(c) })
		}
	}
	return nil
}

// probeToolchain times what admission of a binary request pays, on the crc32
// binary (the largest), and compiling the etl graph.
func probeToolchain(tr *tracer, _ int64, _ *sizes, n int) error {
	spec := mustSpec("racer")
	prog, _, err := workloads.BuildProgram(workloads.ByName("crc32"), spec, 4)
	if err != nil {
		return err
	}
	buf := isa.EncodeProgram(prog)
	src, err := repoFile("examples/pipelines/etl.fbp")
	if err != nil {
		return err
	}
	for i := 0; i < n && err == nil; i++ {
		tr.timed("decode_program", 0, func() { _, err = isa.DecodeProgram(buf) })
		if err == nil {
			tr.timed("lint_preflight", 0, func() { err = lint.Preflight(prog, spec) })
		}
		if err == nil {
			tr.timed("lint_comm_spmd", 0, func() { err = comm.LintSPMD(prog, 1, comm.Options{Spec: spec}).Err() })
		}
		if err == nil {
			tr.timed("fbp_compile", 0, func() { _, err = fbp.CompileSource(string(src), fbp.Options{Spec: spec, MaxMPUs: 64}) })
		}
	}
	return err
}

// probeMachine times machine.New, Reset after a run, and the steady state of
// a resident kernel (Rewind+Run of sobelx with warm traces), which isolates
// replay from PrepareOn.
func probeMachine(tr *tracer, seed int64, sz *sizes, n int) error {
	n = min(n, 5)
	for _, g := range []struct {
		backend string
		elems   int
	}{{"racer", sz.replayElems}, {"simdram", sz.simdramElems}} {
		e := &refEntry{k: workloads.ByName("sobelx"), spec: mustSpec(g.backend), elems: g.elems, seed: seed}
		mc := workloads.MachineConfigFor(e.runConfig())
		var m *machine.Machine
		var err error
		for i := 0; i < n && err == nil; i++ {
			tr.timed("machine_new", 0, func() { m, err = machine.New(mc) })
		}
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if _, err := runKernel(m, e, nil, ""); err != nil {
				return err
			}
			tr.timed("machine_reset", 0, m.Reset)
		}
		p, err := workloads.PrepareOn(m, e.k, e.runConfig())
		if err != nil {
			return err
		}
		if _, err := p.Machine.Run(); err != nil {
			return err
		}
		for i := 0; i < n && err == nil; i++ {
			tr.timed("steady_run_"+g.backend, 0, func() {
				m.Rewind()
				_, err = m.Run()
			})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// probeSnapshot preempts a gcd run at an ensemble boundary, as serve's QoS
// plane does, and times Snapshot and Restore of the mid-run state.
func probeSnapshot(tr *tracer, seed int64, sz *sizes, n int) error {
	e := &refEntry{k: workloads.ByName("gcd"), spec: mustSpec("racer"), elems: sz.dynElems, seed: seed}
	mc := workloads.MachineConfigFor(e.runConfig())
	m, err := machine.New(mc)
	if err != nil {
		return err
	}
	other, err := machine.New(mc)
	if err != nil {
		return err
	}
	p, err := workloads.PrepareOn(m, e.k, e.runConfig())
	if err != nil {
		return err
	}
	m.Preempt()
	if _, err := p.Machine.Run(); err != nil && !errors.Is(err, machine.ErrPreempted) {
		return err
	}
	for i := 0; i < min(n, 10) && err == nil; i++ {
		var snap []byte
		id := tr.begin("snapshot", tr.newReq(), 0)
		snap = m.Snapshot()
		tr.end(id, uint64(len(snap)))
		tr.timed("restore", 0, func() { err = other.Restore(snap) })
	}
	return err
}

// probeETL times Snapshot and Restore of the six-MPU etl machine between
// records, the park every session advance pays.
func probeETL(tr *tracer, seed int64, _ *sizes, n int) error {
	src, err := repoFile("examples/pipelines/etl.fbp")
	if err != nil {
		return err
	}
	spec := mustSpec("racer")
	m, c, err := etlMachine(string(src), spec)
	if err != nil {
		return err
	}
	other, _, err := etlMachine(string(src), spec)
	if err != nil {
		return err
	}
	body, err := newAdvanceBody(rand.New(rand.NewSource(seed)), spec.Lanes)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := runRecord(m, c, body.records[i%recordsPerAdvance]); err != nil {
			return err
		}
		id := tr.begin("snapshot_etl", tr.newReq(), 0)
		snap := m.Snapshot()
		tr.end(id, uint64(len(snap)))
		tr.timed("restore_etl", 0, func() { err = other.Restore(snap) })
		if err != nil {
			return err
		}
		m, other = other, m
	}
	return nil
}

// probeMultiMPU times the systolic edit-distance ring with the sequential
// scheduler and with one worker per CPU: barrier phases across MPUs.
func probeMultiMPU(tr *tracer, seed int64, sz *sizes, n int) error {
	var err error
	for i := 0; i < min(n, 3) && err == nil; i++ {
		for _, w := range []struct {
			span    string
			workers int
		}{{"multimpu_run_w1", 1}, {"multimpu_run_w0", 0}} {
			cfg := apps.EditDistanceConfig{Spec: mustSpec("racer"), MPUs: sz.edMPUs, Seed: seed, Check: true, MachineWorkers: w.workers}
			tr.timed(w.span, 0, func() {
				if _, e := apps.RunEditDistance(cfg); e != nil {
					err = e
				}
			})
		}
	}
	return err
}

// probeRequest is the vecadd @ 128 request the idle-node probes send.
func probeRequest(seed int64) (*execReq, error) {
	e, err := newRefTable().add("vecadd", "racer", 128, seed)
	if err != nil {
		return nil, err
	}
	return newExecReq(e)
}

// probeServe measures, with one client on an idle node: the HTTP floor
// (/healthz), the same execute request in the default class (which sleeps
// out the coalescing window) and in the latency class (which does not), and
// the same request run directly on a machine.
func probeServe(tr *tracer, seed int64, _ *sizes, n int) error {
	rq, err := probeRequest(seed)
	if err != nil {
		return err
	}
	topo, err := startTopology(false, serve.Config{}, "racer:mpu:2")
	if err != nil {
		return err
	}
	defer topo.close()
	c := newClient(1)
	defer c.close()
	m, err := machine.New(workloads.MachineConfigFor(rq.ref.runConfig()))
	if err != nil {
		return err
	}
	for i := 0; i < 5*n && err == nil; i++ {
		tr.timed("healthz", 0, func() {
			var status int
			if status, _, _, err = c.do(http.MethodGet, topo.front+"/healthz", nil, ""); err == nil && status != http.StatusOK {
				err = fmt.Errorf("healthz: status %d", status)
			}
		})
		if err == nil {
			tr.timed("exec_rtt_batch", 0, func() { _, err = rq.post(c, topo.front, "") })
		}
		if err == nil {
			tr.timed("exec_rtt_latency", 0, func() { _, err = rq.post(c, topo.front, serve.ClassLatency) })
		}
		if err == nil {
			_, err = runKernel(m, rq.ref, tr, "direct_service")
		}
	}
	return err
}

// probeRouter alternates one client between the routed path and the node
// that served it, same body: the difference of the medians is the router
// tier on an idle cluster.
func probeRouter(tr *tracer, seed int64, _ *sizes, n int) error {
	rq, err := probeRequest(seed)
	if err != nil {
		return err
	}
	topo, err := startTopology(true, serve.Config{}, "racer:mpu:1", "racer:mpu:1")
	if err != nil {
		return err
	}
	defer topo.close()
	c := newClient(1)
	defer c.close()
	for i := 0; i < 5*n && err == nil; i++ {
		var hdr http.Header
		tr.timed("routed", 0, func() { hdr, err = rq.post(c, topo.front, "") })
		if err == nil {
			owner := "http://" + hdr.Get("X-Mpurouter-Node")
			tr.timed("direct_owner", 0, func() { _, err = rq.post(c, owner, "") })
		}
	}
	return err
}
