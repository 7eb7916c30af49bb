package router

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"mpu/internal/obs"
)

// nodeState is the router's live view of one mpud node, updated by the
// scrape loop and (on transport failure) by the forwarding path.
type nodeState struct {
	name        string // display name: host:port
	base        string // base URL
	ready       atomic.Bool
	loadBits    atomic.Uint64 // math.Float64bits of the EWMA load score
	queueDepth  atomic.Int64  // last probed sum over pools
	inflight    atomic.Int64  // last probed gauge
	outstanding atomic.Int64  // attempts this router has in flight right now

	// Scrape-loop-local state (single goroutine, no locking needed).
	hotScrapes int  // consecutive scrapes with queue depth over the advisory threshold
	advised    bool // advisory already logged for the current hot episode
}

func (n *nodeState) load() float64     { return math.Float64frombits(n.loadBits.Load()) }
func (n *nodeState) setLoad(v float64) { n.loadBits.Store(math.Float64bits(v)) }

// effLoad is the spill signal: the scraped EWMA plus the attempts this
// router has in flight to the node right now. The scrape alone is up to one
// interval stale — deciding on it herds traffic onto whichever node looked
// idle at the last sample and oscillates; the live outstanding count makes
// each routed request immediately visible to the next decision.
func (n *nodeState) effLoad() float64 {
	return n.load() + float64(n.outstanding.Load())
}

// ewmaAlpha weights the newest scrape sample; ~3 scrapes to converge.
const ewmaAlpha = 0.3

// scrapeLoop polls every node's /healthz on the configured interval until
// stop closes — one GET per node per round. Readiness is the status code (a
// draining mpud answers 503 and is immediately routed around); the load score
// is an EWMA of queue_depth + inflight from the typed body, used as the
// least-loaded tiebreak inside a key's candidate set. Sustained queue
// depth above the advisory threshold emits a pool-autoscale advisory log
// line — the router cannot grow a node's pools, but it can tell the
// operator which node needs it.
func (rt *Router) scrapeLoop(stop <-chan struct{}) {
	defer rt.scrapeWG.Done()
	t := time.NewTicker(rt.cfg.ScrapeInterval)
	defer t.Stop()
	rt.scrapeAll()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rt.scrapeAll()
		}
	}
}

func (rt *Router) scrapeAll() {
	for _, n := range rt.nodes {
		rt.scrapeNode(n)
	}
}

func (rt *Router) scrapeNode(n *nodeState) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ScrapeInterval)
	defer cancel()

	wasReady := n.ready.Load()
	status, health, decoded := rt.probe(ctx, n.base+"/healthz")
	ready := status == http.StatusOK
	n.ready.Store(ready)
	if wasReady && !ready {
		rt.metrics.nodeUnreadys.With(n.name).Inc()
		rt.logf(routerLog{Msg: "node-unready", Node: n.name})
	}
	if !wasReady && ready {
		rt.logf(routerLog{Msg: "node-ready", Node: n.name})
	}
	if !ready {
		// Don't decay the load score while unready: the node keeps its last
		// known score and rejoins the tiebreak where it left off.
		n.hotScrapes, n.advised = 0, false
		return
	}

	if !decoded {
		// A 200 that is not a NodeHealth still means ready; the load keeps
		// its last value rather than taking a made-up sample.
		return
	}
	depth := health.QueueDepth
	n.queueDepth.Store(depth)
	n.inflight.Store(health.Inflight)
	sample := float64(depth + health.Inflight)
	n.setLoad(ewmaAlpha*sample + (1-ewmaAlpha)*n.load())

	// Pool-autoscale advisory: sustained admission-queue depth means the
	// node's warm pools are undersized for its shard of the key space.
	if rt.cfg.AutoscaleDepth > 0 && depth >= int64(rt.cfg.AutoscaleDepth) {
		n.hotScrapes++
		if n.hotScrapes >= rt.cfg.AutoscaleSustain && !n.advised {
			n.advised = true
			rt.metrics.advisories.With(n.name).Inc()
			rt.logf(routerLog{
				Msg: "autoscale-advice", Node: n.name, Queue: int(depth),
				Err: "sustained queue depth: grow this node's warm pools (-pools size) or add nodes",
			})
		}
	} else {
		n.hotScrapes, n.advised = 0, false
	}
}

// probe GETs a node's /healthz and returns the status code (0 on transport
// failure) and the typed body; decoded is false when the body — read through
// a 1 MiB cap — is not a NodeHealth.
func (rt *Router) probe(ctx context.Context, url string) (status int, h obs.NodeHealth, decoded bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, h, false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, h, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	decoded = err == nil && json.Unmarshal(body, &h) == nil
	return resp.StatusCode, h, decoded
}
