package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Pipeline passthrough: the router relays the /v1/pipelines session plane to
// the node set with session affinity. A pipeline session is everything
// /v1/execute is not — stateful (the session's machine, resident accumulators
// included, lives on one node) and non-idempotent (an advance applies records; a
// duplicate in flight would double-apply them) — so the hedging and retry
// machinery is deliberately bypassed: every pipeline verb is forwarded
// exactly once, and a transport failure is relayed as 502, never re-sent.
//
// Placement: a create is routed by ring hash on (backend, mode, source-hash),
// the same cache-affinity argument as /v1/execute — identical pipeline graphs
// land on the node whose trace caches and JIT memos already hold their
// compiled programs. The session ID from the create response is then pinned
// to that node in the affinity table, and every subsequent advance, status,
// or close for the ID follows the pin. A DELETE (or a node-side 404, the
// stale-mapping signal after a node restart) clears the pin.

// pipelineFields is the subset of a create request the router reads to place
// the session; everything else is opaque and relayed.
type pipelineFields struct {
	Source  string `json:"source"`
	Backend string `json:"backend"`
	Mode    string `json:"mode"`
}

// pipelineKey hashes like shardKey but over the graph source text (the
// "program" of a pipeline), namespaced so a pipeline never shares a ring
// point with an execute workload of the same name.
func pipelineKey(f *pipelineFields) string {
	mode := strings.ToLower(strings.TrimSpace(f.Mode))
	if mode == "" {
		mode = "mpu"
	}
	prog := fmt.Sprintf("fbp:%016x", fnv64(f.Source))
	return strings.ToLower(strings.TrimSpace(f.Backend)) + "|" + mode + "|" + prog
}

// relayOnce forwards one request to one node, exactly once: no retry, no
// hedge sibling, no fallback candidate. The outstanding count still feeds the
// least-loaded spill signal so pipeline traffic is visible to execute routing.
func (rt *Router) relayOnce(ctx context.Context, n *nodeState, method, path string, body []byte) attempt {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.base+path, rd)
	if err != nil {
		return attempt{node: n, err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	n.outstanding.Add(1)
	defer n.outstanding.Add(-1)
	resp, err := rt.client.Do(req)
	if err != nil {
		return attempt{node: n, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return attempt{node: n, err: err}
	}
	return attempt{node: n, status: resp.StatusCode, body: b, retryAfter: resp.Header.Get("Retry-After")}
}

// pinPipeline records (and pinnedNode reads, unpinPipeline clears) the
// session-ID → node affinity mapping.
func (rt *Router) pinPipeline(id string, n *nodeState) {
	rt.paffMu.Lock()
	rt.paff[id] = n
	rt.paffMu.Unlock()
}

func (rt *Router) pinnedNode(id string) *nodeState {
	rt.paffMu.Lock()
	defer rt.paffMu.Unlock()
	return rt.paff[id]
}

func (rt *Router) unpinPipeline(id string) {
	rt.paffMu.Lock()
	delete(rt.paff, id)
	rt.paffMu.Unlock()
}

func (rt *Router) pinnedPipelines() int {
	rt.paffMu.Lock()
	defer rt.paffMu.Unlock()
	return len(rt.paff)
}

func (rt *Router) handlePipelines(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		rt.listPipelines(w, r)
	case http.MethodPost:
		rt.createPipeline(w, r)
	default:
		writeJSONError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// createPipeline places a new session by ring hash and pins the returned ID.
func (rt *Router) createPipeline(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if rt.Draining() {
		rt.retryLater(w, start, http.StatusServiceUnavailable, "", "draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.finishError(w, start, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err), "")
		return
	}
	var pf pipelineFields
	if err := json.Unmarshal(body, &pf); err != nil {
		rt.finishError(w, start, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err), "")
		return
	}
	key := pipelineKey(&pf)
	targets := rt.targetsFor(key)
	if len(targets) == 0 {
		rt.retryLater(w, start, http.StatusServiceUnavailable, "", "no ready nodes")
		return
	}
	a := rt.relayOnce(r.Context(), targets[0], http.MethodPost, "/v1/pipelines", body)
	if a.err != nil {
		rt.unreadyOnTransportFailure(r.Context(), a)
		rt.finishError(w, start, http.StatusBadGateway, "", a.err.Error(), key)
		return
	}
	id := ""
	if a.status == http.StatusOK {
		var created struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(a.body, &created) == nil && created.ID != "" {
			id = created.ID
			rt.pinPipeline(id, a.node)
		}
	}
	rt.relayPipelineResponse(w, start, a, id, key)
}

// handlePipelineID relays status, advance, and close verbs to the pinned node.
func (rt *Router) handlePipelineID(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := strings.TrimPrefix(r.URL.Path, "/v1/pipelines/")
	if id == "" || strings.Contains(id, "/") {
		writeJSONError(w, http.StatusNotFound, "not found")
		return
	}
	n := rt.pinnedNode(id)
	if n == nil {
		rt.finishError(w, start, http.StatusNotFound, "", fmt.Sprintf("unknown pipeline %s", id), "")
		return
	}
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
		if err != nil {
			rt.finishError(w, start, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err), "")
			return
		}
	}
	// Single attempt even on transport failure: the session state is on this
	// node and nowhere else, so there is no other node to try, and re-sending
	// an advance whose fate is unknown could double-apply its records.
	a := rt.relayOnce(r.Context(), n, r.Method, r.URL.Path, body)
	if a.err != nil {
		rt.unreadyOnTransportFailure(r.Context(), a)
		rt.finishError(w, start, http.StatusBadGateway, "", a.err.Error(), "")
		return
	}
	if (r.Method == http.MethodDelete && a.status == http.StatusOK) || a.status == http.StatusNotFound {
		rt.unpinPipeline(id)
	}
	rt.relayPipelineResponse(w, start, a, id, "")
}

// listPipelines merges every ready node's session list into one view.
func (rt *Router) listPipelines(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		id  string
		raw json.RawMessage
	}
	var all []entry
	for _, n := range rt.nodes {
		if !n.ready.Load() {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		a := rt.relayOnce(ctx, n, http.MethodGet, "/v1/pipelines", nil)
		cancel()
		if a.err != nil || a.status != http.StatusOK {
			continue
		}
		var page struct {
			Sessions []json.RawMessage `json:"sessions"`
		}
		if json.Unmarshal(a.body, &page) != nil {
			continue
		}
		for _, raw := range page.Sessions {
			var idf struct {
				ID string `json:"id"`
			}
			json.Unmarshal(raw, &idf)
			all = append(all, entry{id: idf.ID, raw: raw})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	var out struct {
		Sessions []json.RawMessage `json:"sessions"`
	}
	out.Sessions = make([]json.RawMessage, len(all))
	for i, e := range all {
		out.Sessions[i] = e.raw
	}
	writeJSONStatus(w, http.StatusOK, out)
}

// unreadyOnTransportFailure is the fast feedback both forwarding paths give
// the scraper: a connect failure (a.err != nil, the caller's check) unreadies
// the node immediately; the scrape loop restores it when /healthz answers
// again.
func (rt *Router) unreadyOnTransportFailure(ctx context.Context, a attempt) {
	if a.node == nil || ctx.Err() != nil {
		return
	}
	if a.node.ready.CompareAndSwap(true, false) {
		rt.metrics.nodeUnreadys.With(a.node.name).Inc()
		rt.logf(routerLog{Msg: "node-unready", Node: a.node.name, Err: a.err.Error()})
	}
}

// relayPipelineResponse relays a node's answer verbatim and accounts for it.
func (rt *Router) relayPipelineResponse(w http.ResponseWriter, start time.Time, a attempt, id, key string) {
	if a.status == http.StatusServiceUnavailable && a.retryAfter != "" {
		w.Header().Set("Retry-After", a.retryAfter)
	}
	w.Header().Set("X-Mpurouter-Node", a.node.name)
	w.Header().Set("X-Mpurouter-Attempts", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(a.status)
	w.Write(a.body)
	rt.metrics.observeRequest(a.status, time.Since(start).Seconds())
	rt.metrics.nodeForwards.With(a.node.name).Inc()
	rt.logf(routerLog{
		Msg: "pipeline", Node: a.node.name, Key: key, Pipeline: id,
		Status: a.status, MS: time.Since(start).Seconds() * 1e3, Attempts: 1,
	})
}
