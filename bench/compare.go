package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdicts of one workload x end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worseBy is the share of old by which new is worse, in the metric's bad
// direction; negative when new is better.
func worseBy(d metricDef, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if d.Better == lower {
		return (new - old) / old
	}
	return (old - new) / old
}

// spread is the range of the repetitions behind v as a share of its median.
func spread(v metricValue) float64 {
	if len(v.Reps) < 2 || v.Value == 0 {
		return 0
	}
	s := append([]float64(nil), v.Reps...)
	sort.Float64s(s)
	return (s[len(s)-1] - s[0]) / v.Value
}

// separated reports whether every repetition of a reads better (or, with
// worse set, worse) than every repetition of b.
func separated(d metricDef, a, b metricValue, worse bool) bool {
	if len(a.Reps) == 0 || len(b.Reps) == 0 {
		return false
	}
	for _, x := range a.Reps {
		for _, y := range b.Reps {
			if (worseBy(d, y, x) < 0) == worse || x == y {
				return false
			}
		}
	}
	return true
}

// judge compares one metric of the change against the parent's. A median
// worse by more than the bound is a regression. Where either side's
// repetitions spread wider than the bound the medians cannot resolve a shift
// of that size, so the verdict is unresolved — unless the two sides'
// repetitions do not overlap at all, which decides it either way.
func judge(d metricDef, old, new metricValue) string {
	worse := worseBy(d, old.Value, new.Value)
	switch {
	case separated(d, new, old, false):
		return verdictOK
	case worse > d.Bound && separated(d, new, old, true):
		return verdictRegressed
	case spread(old) > d.Bound || spread(new) > d.Bound:
		return verdictUnresolved
	case worse > d.Bound:
		return verdictRegressed
	}
	return verdictOK
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and end-to-end metric, the old and new
// medians, their ratio with its base, the bound and the verdict. It returns
// 1 on any regression, on a failed share that rose, and on any stats
// mismatch in the new file.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readResult(oldPath)
	if err == nil {
		var new *result
		if new, err = readResult(newPath); err == nil {
			return compareResults(old, new, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareResults(old, new *result, stdout io.Writer) int {
	if old.Env.CPUModel != new.Env.CPUModel || old.Env.NProc != new.Env.NProc {
		fmt.Fprintf(stdout, "# hosts differ: %q x%d against %q x%d; timings are not comparable\n",
			old.Env.CPUModel, old.Env.NProc, new.Env.CPUModel, new.Env.NProc)
	}
	byName := map[string]*workloadResult{}
	for _, w := range old.Workloads {
		byName[w.Name] = w
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %16s %6s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, nw := range new.Workloads {
		ow := byName[nw.Name]
		if ow == nil || ow.Metrics == nil || nw.Metrics == nil {
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.Metrics[d.Name], nw.Metrics[d.Name]
			v := judge(d, o, n)
			if v == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-16s %14.6g %14.6g %9.4f of old %6.2f  %s\n", nw.Name, d.Name, o.Value, n.Value, n.Value/o.Value, d.Bound, v)
		}
		if failedShare(nw) > failedShare(ow) {
			fmt.Fprintf(stdout, "%-16s failed_share rose: %d of %d, was %d of %d\n", nw.Name, nw.Failed, nw.Attempted, ow.Failed, ow.Attempted)
			code = 1
		}
		if nw.StatsMismatches > 0 {
			fmt.Fprintf(stdout, "%-16s stats_mismatches %d: %s\n", nw.Name, nw.StatsMismatches, nw.FirstError)
			code = 1
		}
	}
	return code
}

func failedShare(w *workloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
