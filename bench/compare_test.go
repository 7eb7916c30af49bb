package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// verdictOf finds the verdict printed for (workload, metric).
func verdictOf(t *testing.T, out, workload, metric string) string {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + workload + `\s+` + metric + `\s.*\s(\S+)$`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no line for %s %s in:\n%s", workload, metric, out)
	}
	return m[1]
}

func TestCompareFixtures(t *testing.T) {
	var out, errs bytes.Buffer
	if code := compareFiles("testdata/old.json", "testdata/new.json", &out, &errs); code != 1 {
		t.Errorf("exit %d, want 1: serve-small ok_per_s regressed\n%s%s", code, out.String(), errs.String())
	}
	for _, c := range []struct{ workload, metric, want string }{
		{"sim-replay", "ok_per_s", verdictOK},              // 3% down, bound 25%
		{"sim-replay", "latency_p50_ms", verdictOK},        // 4% up
		{"serve-small", "ok_per_s", verdictRegressed},      // 30% down, tight repetitions
		{"serve-small", "latency_p50_ms", verdictOK},       // unchanged
		{"qos-mixed", "latency_p90_ms", verdictUnresolved}, // 5% up, repetitions spread 43%
		{"pipeline-stream", "latency_p50_ms", verdictOK},   // wide spread, but every repetition better
	} {
		if got := verdictOf(t, out.String(), c.workload, c.metric); got != c.want {
			t.Errorf("%s %s: %s, want %s", c.workload, c.metric, got, c.want)
		}
	}
	// Every line gives the ratio with its base and the bound.
	if !strings.Contains(out.String(), "0.7000 of old") || !strings.Contains(out.String(), "0.25") {
		t.Errorf("ratio with its base, or the bound, is missing:\n%s", out.String())
	}

	out.Reset()
	if code := compareFiles("testdata/old.json", "testdata/old.json", &out, &errs); code != 0 {
		t.Errorf("a file against itself: exit %d\n%s", code, out.String())
	}
}

func TestCompareFailsOnIncorrectResults(t *testing.T) {
	var out, errs bytes.Buffer
	if code := compareFiles("testdata/old.json", "testdata/incorrect.json", &out, &errs); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	for _, want := range []string{"failed_share rose: 3 of 1000", "stats_mismatches 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("%q missing from:\n%s", want, out.String())
		}
	}
	if code := compareFiles("testdata/old.json", "testdata/none.json", &out, &errs); code != 2 {
		t.Errorf("a missing file: exit %d, want 2", code)
	}
}
