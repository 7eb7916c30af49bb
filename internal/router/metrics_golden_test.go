package router

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the metrics golden file")

// goldenRMetrics populates every series the router exports with fixed
// observations, so the render is fully deterministic.
func goldenRMetrics() *rmetrics {
	m := newRMetrics()
	m.observeRequest(200, 0.004)
	m.observeRequest(200, 0.3)
	m.observeRequest(429, 0.0001)
	m.nodeForwards.With("n1:9001").Add(2)
	m.nodeForwards.With("n2:9002").Inc()
	m.retries.Inc()
	m.hedges.Add(2)
	m.hedgeWins.Inc()
	m.nodeUnreadys.With("n2:9002").Inc()
	m.advisories.With("n1:9001").Inc()
	m.inflight.Inc()
	return m
}

// TestRouterMetricsRenderGolden pins the router's /metrics exposition
// byte-for-byte — series names, help text, label shapes, and emission order
// are a wire contract for dashboards and the cluster studies. A rename or
// reorder must show up as a reviewed golden diff, not a silent scrape break.
// Regenerate with: go test ./internal/router -run TestRouterMetricsRenderGolden -update
func TestRouterMetricsRenderGolden(t *testing.T) {
	// Listed out of name order: the registry sorts series by label value.
	n1, n2 := &nodeState{name: "n1:9001"}, &nodeState{name: "n2:9002"}
	n1.ready.Store(true)
	n1.setLoad(1.5)
	n1.queueDepth.Store(3)
	var sb strings.Builder
	goldenRMetrics().render(&sb, []*nodeState{n2, n1},
		map[string][2]uint64{"default": {12, 0}, "tenant-b": {4, 2}}, 0.025, 1)
	got := sb.String()
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("metrics rendering drifted from %s (regenerate with -update if intended):\n%s",
			golden, rDiffLines(string(want), got))
	}
}

// rDiffLines renders a compact first-divergence report for golden mismatches.
func rDiffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\nwant: %s\ngot:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(w), len(g))
}
