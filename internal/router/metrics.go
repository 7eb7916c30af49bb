package router

import (
	"io"
	"strconv"

	"mpu/internal/obs"
)

// rmetrics is the router's catalogue on the shared obs registry, the same
// idiom as internal/serve: unlabelled series are bound once, here, labelled
// ones by one lookup at the observation. Declaration order is emission
// order, and testdata/metrics.golden pins the result byte-for-byte.
type rmetrics struct {
	reg *obs.Registry

	requests     *obs.Family[*obs.Int] // HTTP status code → count
	inflight     *obs.Int              // admitted, not yet answered
	nodeForwards *obs.Family[*obs.Int] // node → winning responses relayed
	retries      *obs.Int              // extra attempts after 503/transport failure
	hedges       *obs.Int              // speculative duplicates launched
	hedgeWins    *obs.Int              // hedged attempt answered first
	nodeUnreadys *obs.Family[*obs.Int] // node → ready→unready transitions
	advisories   *obs.Family[*obs.Int] // node → autoscale advisories emitted
	latency      *obs.Histogram        // request wall time, seconds

	// Sampled at render time from the live router state.
	hedgeDelay                    *obs.Float
	nodeReady, nodeDepth          *obs.Family[*obs.Int]
	nodeLoad                      *obs.Family[*obs.Float]
	tenantGranted, tenantRejected *obs.Family[*obs.Int]
	pipelines                     *obs.Int
}

func newRMetrics() *rmetrics {
	r := &obs.Registry{}
	m := &rmetrics{reg: r}
	m.requests = r.Counter("mpurouter_requests_total", "Requests answered, by HTTP status code.", "code")
	m.inflight = r.Gauge("mpurouter_inflight", "Admitted requests not yet answered.").With()
	m.nodeForwards = r.Counter("mpurouter_node_requests_total", "Winning responses relayed, by serving node.", "node")
	m.retries = r.Counter("mpurouter_retries_total", "Extra attempts after a 503 or transport failure.").With()
	m.hedges = r.Counter("mpurouter_hedges_total", "Speculative duplicate attempts launched after the hedge delay.").With()
	m.hedgeWins = r.Counter("mpurouter_hedge_wins_total", "Hedged attempts that answered before the primary.").With()
	m.hedgeDelay = r.FloatGauge("mpurouter_hedge_delay_seconds", "Current hedge trigger delay (tracked p95, clamped).").With()
	m.nodeReady = r.Gauge("mpurouter_node_ready", "Node readiness from the /healthz scrape (1 ready, 0 not).", "node")
	m.nodeLoad = r.FloatGauge("mpurouter_node_load", "EWMA load score (queue depth + inflight) per node.", "node")
	m.nodeDepth = r.Gauge("mpurouter_node_queue_depth", "Last scraped admission-queue depth per node.", "node")
	m.nodeUnreadys = r.Counter("mpurouter_node_unready_total", "Ready-to-unready transitions observed by the scraper.", "node")
	m.advisories = r.Counter("mpurouter_autoscale_advisories_total", "Pool-autoscale advisories logged per node.", "node")
	m.tenantGranted = r.Counter("mpurouter_tenant_granted_total", "Admission grants per tenant.", "tenant")
	m.tenantRejected = r.Counter("mpurouter_tenant_rejected_total", "Admissions refused with 429 per tenant (queue full).", "tenant")
	m.latency = r.Histogram("mpurouter_request_seconds", "Request wall time from admission to relayed response.",
		[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}).With()
	m.pipelines = r.Gauge("mpurouter_pipelines", "Pipeline sessions with a live node-affinity pin.").With()
	return m
}

func (m *rmetrics) observeRequest(code int, seconds float64) {
	m.requests.With(strconv.Itoa(code)).Inc()
	m.latency.Observe(seconds)
}

// render samples the live state it is handed — node states, per-tenant
// (granted, rejected) counts, the hedge delay and the pinned-session count —
// and emits the Prometheus text exposition.
func (m *rmetrics) render(w io.Writer, nodes []*nodeState, tenants map[string][2]uint64, hedgeDelaySec float64, pipelines int) {
	m.hedgeDelay.Set(hedgeDelaySec)
	for _, n := range nodes {
		ready := int64(0)
		if n.ready.Load() {
			ready = 1
		}
		m.nodeReady.With(n.name).Set(ready)
		m.nodeLoad.With(n.name).Set(n.load())
		m.nodeDepth.With(n.name).Set(n.queueDepth.Load())
	}
	for name, t := range tenants {
		m.tenantGranted.With(name).Set(int64(t[0]))
		m.tenantRejected.With(name).Set(int64(t[1]))
	}
	m.pipelines.Set(int64(pipelines))
	m.reg.WriteTo(w)
}
