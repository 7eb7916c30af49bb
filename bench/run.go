package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// runner measures workloads: the untraced run gives the end-to-end metrics,
// the traced run the per-layer ones.
type runner struct {
	seed   int64
	sz     *sizes
	window time.Duration // measured time per workload and run, split over reps
	setups int           // set-ups per workload in the untraced run; setup_s is the fastest
	reps   int           // repetitions per workload in the untraced run
}

// setUp builds the workload's instance n times, keeping the last, and
// returns the set-up times in seconds. A set-up is the same work every time,
// so, as with a kernel's passes, the fastest is the one reported. Garbage of a discarded instance is
// returned to the OS outside the timed region, so peak memory does not
// depend on when the collector last ran.
func (r *runner) setUp(w *workloadDef, n int) (instance, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		inst, err := w.setup(r.seed, r.sz)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return inst, times, nil
		}
		inst.close()
	}
}

// begin sets w up n times and records its reference digest in res, checked
// against the pinned one.
func (r *runner) begin(w *workloadDef, n int, res *workloadResult) (instance, []float64, error) {
	inst, times, err := r.setUp(w, n)
	if err != nil {
		return nil, nil, err
	}
	res.Digest = inst.refs().digest()
	if err := checkGolden(w.name, r.seed, r.sz, res.Digest); err != nil {
		res.StatsMismatches++
		res.FirstError = err.Error()
	}
	return inst, times, nil
}

// endToEnd is the untraced run: per workload the set-ups, then r.reps
// repetitions back to back, then teardown. It fills results[i].Metrics.
func (r *runner) endToEnd(ws []*workloadDef, results []*workloadResult) error {
	for i, w := range ws {
		inst, setupS, err := r.begin(w, r.setups, results[i])
		if err != nil {
			return err
		}
		// The three timed metrics are reduced from the samples pooled over
		// the repetitions; each repetition's own value is kept beside them.
		var pooled samples
		var ok, p50, p90 metricValue
		for rep := 0; rep < r.reps; rep++ {
			rr := inst.rep(r.window/time.Duration(r.reps), nil, nil)
			results[i].count(rr)
			pooled.add(rr.samples)
			a, b, c := rr.headline()
			ok.Reps, p50.Reps, p90.Reps = append(ok.Reps, a), append(p50.Reps, b), append(p90.Reps, c)
			if rep == r.reps-1 {
				results[i].note("latency_p90_ms", tailNote(rr.lat))
			}
		}
		inst.close()
		ok.Value, p50.Value, p90.Value = pooled.headline()
		m := map[string]metricValue{
			"setup_s":  {Value: slices.Min(setupS), Reps: setupS},
			"ok_per_s": ok, "latency_p50_ms": p50, "latency_p90_ms": p90,
		}
		for _, d := range endToEnd {
			v := m[d.Name]
			v.Unit = d.Unit
			m[d.Name] = v
		}
		results[i].Metrics = m
	}
	return nil
}

// traced is the second run: per workload one untraced and one traced
// repetition back to back on the same instance (their rates give the tracing
// overhead), then the idle-system probes, once, reported under every
// workload. It fills results[i].Layers and returns the spans.
func (r *runner) traced(ws []*workloadDef, results []*workloadResult) ([]*tracer, error) {
	var tracers []*tracer
	var layers []*metricSet
	for i, w := range ws {
		res := results[i]
		inst, _, err := r.begin(w, 1, res)
		if err != nil {
			return nil, err
		}
		layer := newMetricSet()
		tr := newTracer(w.name)
		plain := inst.rep(r.window/2, nil, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		withSpans := inst.rep(r.window/2, tr, layer)
		runtime.ReadMemStats(&after)
		inst.close()
		layer.set("host.alloc_bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/float64(max(withSpans.attempted, 1)))
		layer.set("host.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
		layer.set("host.num_gc", float64(after.NumGC-before.NumGC))
		layer.set("peak_rss_mb", peakRSSMiB()) // before the probes raise it
		res.count(plain)
		res.count(withSpans)
		a, _, _ := plain.headline()
		b, _, _ := withSpans.headline()
		if a > 0 {
			layer.set("bench.trace_overhead_pct", 100*(a-b)/a)
		}
		tracers = append(tracers, tr)
		layers = append(layers, layer)
	}
	probes := newMetricSet()
	tr := newTracer("probes")
	if err := runProbes(tr, probes, r.seed, r.sz); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	tracers = append(tracers, tr)
	for i, res := range results {
		layers[i].merge(probes)
		// Counted last, so they cover both runs when both were made.
		layers[i].set("failed_share", float64(res.Failed)/float64(res.Attempted))
		layers[i].set("stats_mismatches", float64(res.StatsMismatches))
		res.Layers = layers[i].values()
	}
	return tracers, nil
}
