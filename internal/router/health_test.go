package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpu/internal/machine"
	"mpu/internal/serve"
)

// nodeReport is one entry of the router's /healthz node list.
type nodeReport struct {
	Name       string  `json:"name"`
	Ready      bool    `json:"ready"`
	Load       float64 `json:"load"`
	QueueDepth int64   `json:"queue_depth"`
	Inflight   int64   `json:"inflight"`
}

// routerNodes reads the router's own view of its nodes from its /healthz.
func routerNodes(t *testing.T, routerURL string) []nodeReport {
	t.Helper()
	resp, err := http.Get(routerURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Nodes []nodeReport `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Nodes
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// TestNodeLoadContract holds the contract between the two tiers that the
// fakes elsewhere only imitate: a real serve.Server's queue shows up in the
// router's view. One pool of one machine, its worker held by DebugDelay, four
// distinct requests: one executing, three queued behind it.
func TestNodeLoadContract(t *testing.T) {
	cluster := startCluster(t, 1, func(i int, c *serve.Config) {
		c.Pools = []serve.PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}}
		c.DebugDelay = 400 * time.Millisecond
	})
	_, rts := startRouter(t, cluster, func(c *Config) { c.ScrapeInterval = 10 * time.Millisecond })

	var wg sync.WaitGroup
	defer wg.Wait()
	for seed := 0; seed < 4; seed++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			code, body, _ := postJSON(t, cluster[0].ts.URL, map[string]any{
				"workload": "gcd", "backend": "racer", "elements": 64, "seed": seed,
			}, nil)
			if code != http.StatusOK {
				t.Errorf("seed %d: %d %s", seed, code, body)
			}
		}(seed)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		// The depth only moves every DebugDelay, so a /metrics read between
		// two equal /healthz reads saw that same depth.
		before := routerNodes(t, rts.URL)[0]
		metrics := getText(t, rts.URL+"/metrics")
		after := routerNodes(t, rts.URL)[0]
		if before.QueueDepth >= 2 && before.Inflight >= 3 && before.QueueDepth == after.QueueDepth {
			want := fmt.Sprintf("mpurouter_node_queue_depth{node=%q} %d\n", before.Name, before.QueueDepth)
			if !strings.Contains(metrics, want) {
				t.Fatalf("/healthz reports depth %d but /metrics lacks %q:\n%s", before.QueueDepth, want, metrics)
			}
			if before.Load <= 0 {
				t.Fatalf("load score did not move with the queue: %+v", before)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never saw the node's queue (want queue_depth >= 2, inflight >= 3): %+v", after)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProbeUndecodableBody: a node that answers 200 with something other than
// a NodeHealth stays ready, and its load stays at the last decoded value
// instead of taking a made-up sample.
func TestProbeUndecodableBody(t *testing.T) {
	var garbage atomic.Bool
	var probes atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer probes.Add(1)
		if garbage.Load() {
			w.Write([]byte("not json"))
			return
		}
		w.Write([]byte(`{"status":"ok","queue_depth":4,"inflight":6}`))
	}))
	t.Cleanup(fake.Close)
	_, rts := startRouter(t, nil, func(c *Config) {
		c.Nodes = []string{fake.URL}
		c.ScrapeInterval = 5 * time.Millisecond
	})
	// waitProbes blocks until n more probes have been answered in full.
	waitProbes := func(n int64) {
		t.Helper()
		target := probes.Load() + n
		for deadline := time.Now().Add(5 * time.Second); probes.Load() < target; {
			if time.Now().After(deadline) {
				t.Fatalf("scrape loop stalled at %d probes", probes.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	garbage.Store(true)
	waitProbes(3) // any decodable answer still in flight has landed
	held := routerNodes(t, rts.URL)[0]
	waitProbes(3)
	now := routerNodes(t, rts.URL)[0]
	if !now.Ready {
		t.Fatalf("a 200 with an undecodable body unreadied the node: %+v", now)
	}
	if now.QueueDepth != 4 || now.Inflight != 6 || now.Load <= 0 || now.Load != held.Load {
		t.Fatalf("load moved without a decodable sample: was %+v, now %+v", held, now)
	}
}

// TestTenantLabelEscaping: X-Tenant is outside input and lands in a label
// value. A tab must reach the exposition raw — Go's %q rendering (`\t`) is
// not in the text format and breaks every later scrape for a strict reader.
func TestTenantLabelEscaping(t *testing.T) {
	cluster := startCluster(t, 1, nil)
	_, rts := startRouter(t, cluster, nil)
	if code, body, _ := postJSON(t, rts.URL, map[string]any{
		"workload": "vecadd", "backend": "racer", "elements": 64,
	}, map[string]string{"X-Tenant": "a\tb"}); code != http.StatusOK {
		t.Fatalf("execute: %d %s", code, body)
	}
	text := getText(t, rts.URL+"/metrics")
	if want := "mpurouter_tenant_granted_total{tenant=\"a\tb\"} 1\n"; !strings.Contains(text, want) {
		t.Errorf("metrics missing %q", want)
	}
	if strings.Contains(text, `\t`) {
		t.Error(`tenant label rendered with a \t escape`)
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}
