package serve

import (
	"io"
	"strconv"

	"mpu/internal/machine"
	"mpu/internal/obs"
)

// metrics is the daemon's catalogue on the shared obs registry: request
// counters by status code, queue-depth gauges, batch-size and latency
// histograms, and trace-engine counters rolled up from machine.Stats.
// Unlabelled series are bound once, here; the request path reaches them
// through the handle. Declaration order is emission order, and
// testdata/metrics.golden pins the result byte-for-byte.
type metrics struct {
	reg *obs.Registry

	// node is the cluster node label ("" on a standalone daemon, which obs
	// renders as no label at all). Only the gauges carry it — multi-node
	// scrapes need to distinguish live state per node, and keeping the
	// counters label-free keeps single-node dashboards stable.
	node string

	requests   *obs.Family[*obs.Int] // HTTP status code → count
	drops      *obs.Int              // admissions refused: queue full or draining
	inflight   *obs.Int              // admitted requests not yet answered
	queueDepth *obs.Family[*obs.Int] // per pool, sampled at render time
	batches    *obs.Int              // executed batches
	batchSize  *obs.Histogram        // requests coalesced per executed batch
	latency    *obs.Histogram        // request wall time, seconds (admission → response)

	traceHits, traceMisses, traceFallbacks, jitCompiles, jitReplays, roundsTotal *obs.Int

	// QoS plane: preemption accounting, the batch jobs paused while their
	// workers serve latency work, and per-class latency.
	preemptions, parkedJobs *obs.Int
	classSeconds            map[string]*obs.Histogram // ClassLatency / ClassBatch

	// Pipeline session plane: live sessions and records streamed.
	sessionsOpen, sessionRecords *obs.Int

	// The process-wide decode table (machine.DecodeTableStats), sampled at
	// render time.
	decodeEntries, decodeBytes, decodeFlushes *obs.Int
}

func newMetrics(node string) *metrics {
	r := &obs.Registry{}
	m := &metrics{reg: r, node: node}
	counter := func(name, help string) *obs.Int { return r.Counter(name, help).With() }
	gauge := func(name, help string) *obs.Int { return r.Gauge(name, help, "node").With(node) }
	requestBounds := []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

	m.requests = r.Counter("mpud_requests_total", "Requests answered, by HTTP status code.", "code")
	m.drops = counter("mpud_backpressure_total", "Admissions refused with 503 (queue full or draining).")
	m.inflight = gauge("mpud_inflight", "Admitted requests not yet answered.")
	m.queueDepth = r.Gauge("mpud_queue_depth", "Batches waiting in each pool's admission queue.", "node", "pool")
	m.batches = counter("mpud_batches_total", "Coalesced batches executed.")
	m.batchSize = r.Histogram("mpud_batch_size", "Requests coalesced into one SPMD run.", []float64{1, 2, 4, 8, 16, 32, 64}).With()
	m.latency = r.Histogram("mpud_request_seconds", "Request wall time from admission to response.", requestBounds).With()

	m.traceHits = counter("mpud_trace_hits_total", "Trace-engine replay hits rolled up from run stats.")
	m.traceMisses = counter("mpud_trace_misses_total", "Trace-engine compile rounds rolled up from run stats.")
	m.traceFallbacks = counter("mpud_trace_fallbacks_total", "Interpreted rounds (untraceable bodies) rolled up from run stats.")
	m.jitCompiles = counter("mpud_jit_compiles_total", "Trace bodies JIT-compiled to closure chains, rolled up from run stats.")
	m.jitReplays = counter("mpud_jit_replays_total", "Replay rounds served by JIT-compiled closure chains, rolled up from run stats.")
	m.roundsTotal = counter("mpud_scheduler_rounds_total", "Machine scheduler rounds rolled up from run stats.")

	m.preemptions = counter("mpud_preemptions_total", "Batch jobs paused at an instruction boundary while their worker ran latency work.")
	m.parkedJobs = gauge("mpud_parked_jobs", "Batch jobs paused while their worker runs latency work.")
	byClass := r.Histogram("mpud_class_request_seconds", "Request wall time from admission to response, by QoS class.", requestBounds, "class")
	m.classSeconds = map[string]*obs.Histogram{ClassBatch: byClass.With(ClassBatch), ClassLatency: byClass.With(ClassLatency)}

	m.sessionsOpen = gauge("mpud_sessions", "Live pipeline sessions.")
	m.sessionRecords = counter("mpud_session_records_total", "Records streamed through pipeline sessions.")

	m.decodeEntries = gauge("mpud_decode_table_entries", "Decoded instructions held in the process-wide decode table.")
	m.decodeBytes = gauge("mpud_decode_table_bytes", "Bytes the decode table's entries retain.")
	m.decodeFlushes = counter("mpud_decode_table_flushes_total", "Times the decode table was emptied to stay within its budget.")
	return m
}

func (m *metrics) observeRequest(code int, seconds float64) {
	m.requests.With(strconv.Itoa(code)).Inc()
	m.latency.Observe(seconds)
}

func (m *metrics) observeDrop(code int) {
	m.requests.With(strconv.Itoa(code)).Inc()
	m.drops.Inc()
}

func (m *metrics) observeBatch(size int) {
	m.batches.Inc()
	m.batchSize.Observe(float64(size))
}

func (m *metrics) rollupStats(traceHits, traceMisses, traceFallbacks, jitCompiles, jitReplays, rounds uint64) {
	m.traceHits.Add(int64(traceHits))
	m.traceMisses.Add(int64(traceMisses))
	m.traceFallbacks.Add(int64(traceFallbacks))
	m.jitCompiles.Add(int64(jitCompiles))
	m.jitReplays.Add(int64(jitReplays))
	m.roundsTotal.Add(int64(rounds))
}

// observeClass records one answered request's wall time under its QoS class.
func (m *metrics) observeClass(class string, seconds float64) {
	if h, ok := m.classSeconds[class]; ok {
		h.Observe(seconds)
	}
}

// observePark counts one batch job paused while its worker runs latency work.
func (m *metrics) observePark() {
	m.preemptions.Inc()
	m.parkedJobs.Inc()
}

// observeUnpark removes one job from the paused gauge as it resumes.
func (m *metrics) observeUnpark() { m.parkedJobs.Add(-1) }

// render samples the pool gauges (pool name → batches waiting) and the
// decode table, and emits the Prometheus text exposition.
func (m *metrics) render(w io.Writer, depths map[string]int, tab machine.DecodeTable) {
	for pool, depth := range depths {
		m.queueDepth.With(m.node, pool).Set(int64(depth))
	}
	m.decodeEntries.Set(tab.Entries)
	m.decodeBytes.Set(tab.Bytes)
	m.decodeFlushes.Set(tab.Flushes)
	m.reg.WriteTo(w)
}
