package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"mpu/internal/serve"
)

// pipeSource is a 2-node streaming graph with a resident accumulator: src
// splits the record register, total folds it into r48. The accumulator
// carrying across requests is the proof that the affine node's resident
// machine — not a fresh compile — served every advance.
const pipeSource = "src(Split) OUT -> IN total(Reduce)\n'1' -> REGS src\n'add' -> OP total\n"

func pipeJSON(t *testing.T, method, url string, req any) (int, []byte, http.Header) {
	t.Helper()
	var rd *bytes.Reader
	if req != nil {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	hr, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header
}

func advanceBody(records int, base uint64) map[string]any {
	recs := make([]map[string]any, records)
	for i := range recs {
		vals := make([]uint64, 64)
		for l := range vals {
			vals[l] = base + uint64(i)
		}
		recs[i] = map[string]any{
			"sets":  []map[string]any{{"node": "src", "reg": 0, "values": vals}},
			"dumps": []map[string]any{{"node": "total", "reg": 48}},
		}
	}
	return map[string]any{"records": recs}
}

func accumulator(t *testing.T, body []byte) uint64 {
	t.Helper()
	var resp struct {
		Records []struct {
			Dumps []struct {
				Values []uint64 `json:"values"`
			} `json:"dumps"`
		} `json:"records"`
		Summary struct {
			TraceMisses uint64 `json:"trace_misses"`
			JITCompiles uint64 `json:"jit_compiles"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad advance body %s: %v", body, err)
	}
	last := resp.Records[len(resp.Records)-1]
	return last.Dumps[0].Values[0]
}

// TestRouterPipelineAffinity pins the session plane's routing contract:
// a create lands on one node by ring hash, every advance for that session
// follows the pin exactly once (X-Mpurouter-Attempts is always 1 — never
// hedged, never retried), state accumulates across separate routed requests,
// and DELETE clears the pin so the ID becomes 404 at the router.
func TestRouterPipelineAffinity(t *testing.T) {
	cluster := startCluster(t, 3, nil)
	rt, rts := startRouter(t, cluster, nil) // hedging ON — pipelines must ignore it
	_ = rt

	code, body, hdr := pipeJSON(t, http.MethodPost, rts.URL+"/v1/pipelines", map[string]any{
		"source": pipeSource, "backend": "racer",
	})
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}
	var created struct {
		ID   string `json:"id"`
		MPUs int    `json:"mpus"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		t.Fatalf("create body %s: %v", body, err)
	}
	if created.MPUs != 2 {
		t.Fatalf("placement: got %d MPUs, want 2", created.MPUs)
	}
	owner := hdr.Get("X-Mpurouter-Node")
	if owner == "" {
		t.Fatal("create response lacks the serving-node header")
	}

	// Stream records across separate routed requests; the accumulator must
	// carry, and every request must land on the create's node in one attempt.
	want := uint64(0)
	for reqN := 0; reqN < 4; reqN++ {
		code, body, hdr := pipeJSON(t, http.MethodPost, rts.URL+"/v1/pipelines/"+created.ID, advanceBody(3, 1))
		if code != http.StatusOK {
			t.Fatalf("advance %d: %d %s", reqN, code, body)
		}
		if got := hdr.Get("X-Mpurouter-Node"); got != owner {
			t.Fatalf("advance %d served by %s, session lives on %s — affinity broken", reqN, got, owner)
		}
		if got := hdr.Get("X-Mpurouter-Attempts"); got != "1" {
			t.Fatalf("advance %d took %s attempts — pipelines must be single-attempt", reqN, got)
		}
		want += 1 + 2 + 3 // three records of lane-value base..base+2
		if got := accumulator(t, body); got != want {
			t.Fatalf("advance %d: accumulator %d, want %d — state did not carry across requests", reqN, got, want)
		}
	}

	// Status follows the pin too, and the merged listing shows the session.
	code, body, _ = pipeJSON(t, http.MethodGet, rts.URL+"/v1/pipelines/"+created.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st struct {
		Records uint64 `json:"records"`
		Busy    bool   `json:"busy"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Records != 12 || st.Busy {
		t.Fatalf("status: records=%d busy=%v, want 12/false", st.Records, st.Busy)
	}
	code, body, _ = pipeJSON(t, http.MethodGet, rts.URL+"/v1/pipelines", nil)
	if code != http.StatusOK || !strings.Contains(string(body), created.ID) {
		t.Fatalf("listing lacks %s: %d %s", created.ID, code, body)
	}

	// DELETE relays the close and clears the pin.
	if code, body, _ = pipeJSON(t, http.MethodDelete, rts.URL+"/v1/pipelines/"+created.ID, nil); code != http.StatusOK {
		t.Fatalf("close: %d %s", code, body)
	}
	if code, _, _ = pipeJSON(t, http.MethodGet, rts.URL+"/v1/pipelines/"+created.ID, nil); code != http.StatusNotFound {
		t.Fatalf("post-close status: %d, want 404", code)
	}
}

// TestRouterPipelineSpread pins the placement motivation: distinct graph
// sources spread across the cluster while identical sources share a node.
func TestRouterPipelineSpread(t *testing.T) {
	cluster := startCluster(t, 3, func(i int, c *serve.Config) {
		c.MaxSessions = 32
	})
	_, rts := startRouter(t, cluster, nil)

	nodesUsed := map[string]bool{}
	bySource := map[string]map[string]bool{}
	var ids []string
	for variant := 0; variant < 6; variant++ {
		src := pipeSource + fmt.Sprintf("# variant %d\n", variant)
		for rep := 0; rep < 2; rep++ {
			code, body, hdr := pipeJSON(t, http.MethodPost, rts.URL+"/v1/pipelines", map[string]any{
				"source": src, "backend": "racer",
			})
			if code != http.StatusOK {
				t.Fatalf("create variant %d: %d %s", variant, code, body)
			}
			var created struct {
				ID string `json:"id"`
			}
			json.Unmarshal(body, &created)
			ids = append(ids, created.ID)
			node := hdr.Get("X-Mpurouter-Node")
			if bySource[src] == nil {
				bySource[src] = map[string]bool{}
			}
			bySource[src][node] = true
			nodesUsed[node] = true
		}
	}
	for src, nodes := range bySource {
		if len(nodes) != 1 {
			t.Errorf("identical source landed on %d nodes %v — cache affinity broken:\n%s", len(nodes), nodes, src)
		}
	}
	if len(nodesUsed) < 2 {
		t.Errorf("all pipelines landed on one node: %v", nodesUsed)
	}
	for _, id := range ids {
		if code, body, _ := pipeJSON(t, http.MethodDelete, rts.URL+"/v1/pipelines/"+id, nil); code != http.StatusOK {
			t.Fatalf("close %s: %d %s", id, code, body)
		}
	}
}

// TestRouterPipelineErrors pins the relayed error taxonomy: a rejected graph's
// 422 finding envelope passes through verbatim, an unknown ID is a router-side
// 404, and a draining router refuses creates but keeps advancing pinned
// sessions (admitted work).
func TestRouterPipelineErrors(t *testing.T) {
	cluster := startCluster(t, 2, nil)
	rt, rts := startRouter(t, cluster, nil)

	// Deadlocking ring (mismatched STEPS) → node-side 422 with findings,
	// relayed byte-for-byte.
	bad := "a(EDStep) RIGHT -> LEFT b\nb(EDStep) RIGHT -> LEFT a\n'1' -> STEPS a\n'2' -> STEPS b\n"
	code, body, _ := pipeJSON(t, http.MethodPost, rts.URL+"/v1/pipelines", map[string]any{
		"source": bad, "backend": "racer",
	})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("deadlocking graph: %d %s", code, body)
	}
	var envelope struct {
		Error    string            `json:"error"`
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || len(envelope.Findings) == 0 {
		t.Fatalf("422 without findings: %s", body)
	}

	// Unknown session ID: the router answers 404 itself — no pin, no node.
	if code, body, _ = pipeJSON(t, http.MethodPost, rts.URL+"/v1/pipelines/nope", advanceBody(1, 1)); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d %s", code, body)
	}

	// Draining: creates refused with Retry-After, pinned advances keep flowing.
	code, body, _ = pipeJSON(t, http.MethodPost, rts.URL+"/v1/pipelines", map[string]any{
		"source": pipeSource, "backend": "racer",
	})
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &created)
	rt.Drain()
	code, body, hdr := pipeJSON(t, http.MethodPost, rts.URL+"/v1/pipelines", map[string]any{
		"source": pipeSource, "backend": "racer",
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining refusal without Retry-After")
	}
	if code, body, _ = pipeJSON(t, http.MethodPost, rts.URL+"/v1/pipelines/"+created.ID, advanceBody(2, 1)); code != http.StatusOK {
		t.Fatalf("advance while draining: %d %s — admitted sessions must keep flowing", code, body)
	}
}
