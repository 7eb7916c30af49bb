package serve

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpu/internal/machine"
)

var updateGolden = flag.Bool("update", false, "rewrite the metrics golden files")

// goldenMetrics populates every series the daemon exports with fixed
// observations, so the render is fully deterministic.
func goldenMetrics() *metrics {
	m := newMetrics("n1")
	m.observeRequest(200, 0.004)
	m.observeRequest(200, 0.03)
	m.observeRequest(504, 31)
	m.observeDrop(503)
	m.observeBatch(3)
	m.observeBatch(1)
	m.rollupStats(5, 2, 1, 3, 4, 100)
	m.inflight.Add(2)
	m.observeClass(ClassBatch, 0.03)
	m.observeClass(ClassLatency, 0.004)
	m.observePark()
	m.observePark()
	m.observeUnpark()
	m.sessionsOpen.Add(1)
	m.sessionRecords.Add(15)
	return m
}

// TestMetricsRenderGolden pins the full /metrics exposition byte-for-byte:
// the series names, help text, label shapes, and emission order are a wire
// contract — bench's scrape and dashboards key on them. Renaming or
// reordering a series must show up as a reviewed golden diff, not a silent
// scrape break.
// Regenerate with: go test ./internal/serve -run TestMetricsRenderGolden -update
func TestMetricsRenderGolden(t *testing.T) {
	var sb strings.Builder
	goldenMetrics().render(&sb, map[string]int{"MIMDRAM/MPU": 0, "RACER/MPU": 2},
		machine.DecodeTable{Entries: 12, Bytes: 3 << 20, Flushes: 1})
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
			golden, diffLines(string(want), got))
	}
}

// TestMetricsRenderNoNode pins the standalone-daemon shape: without a NodeID
// the gauges carry no node label (single-node dashboards key on the bare
// series names).
func TestMetricsRenderNoNode(t *testing.T) {
	var sb strings.Builder
	newMetrics("").render(&sb, map[string]int{"RACER/MPU": 1}, machine.DecodeTable{})
	got := sb.String()
	for _, want := range []string{
		"mpud_inflight 0\n",
		"mpud_queue_depth{pool=\"RACER/MPU\"} 1\n",
		"mpud_parked_jobs 0\n",
		"mpud_sessions 0\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in node-less rendering", strings.TrimSpace(want))
		}
	}
	if strings.Contains(got, "node=") {
		t.Error("node label leaked into node-less rendering")
	}
}

// diffLines renders a compact first-divergence report for golden mismatches.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\nwant: %s\ngot:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(w), len(g))
}
