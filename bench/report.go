package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// envInfo records the host a result came from, so two result files are only
// compared knowingly.
type envInfo struct {
	Hostname   string  `json:"hostname"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	StartUTC   string  `json:"start_utc"`
	WallS      float64 `json:"wall_s"`
}

func newEnv(seed int64, start time.Time) envInfo {
	host, _ := os.Hostname() // best effort: the field is informational
	return envInfo{
		Hostname: host, NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), GitCommit: gitCommit(),
		Seed: seed, StartUTC: start.UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the commit from the build info, or from .git without
// starting a process; a checkout that is not a git repository has none.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := repoFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := repoFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return name
	}
	return ref
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// metricValue is one reported number. Reps are the values of the single
// repetitions (or set-ups) behind it, kept so that a comparison can tell a
// shift from spread.
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps,omitempty"`
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name            string                 `json:"name"`
	Attempted       int                    `json:"attempted"`
	OK              int                    `json:"ok"`
	Failed          int                    `json:"failed"`
	StatsMismatches int                    `json:"stats_mismatches"`
	Digest          string                 `json:"reference_digest"`
	Metrics         map[string]metricValue `json:"metrics,omitempty"` // end to end, untraced run
	Layers          map[string]metricValue `json:"layers,omitempty"`  // per layer, traced run
	FirstError      string                 `json:"first_error,omitempty"`

	notes map[string]string // trailing remark per printed metric
}

func (w *workloadResult) correct() bool { return w.StatsMismatches == 0 && w.FirstError == "" }

func (w *workloadResult) note(metric, text string) {
	if w.notes == nil {
		w.notes = map[string]string{}
	}
	w.notes[metric] = text
}

func (w *workloadResult) count(r repResult) {
	w.Attempted += r.attempted
	w.Failed += r.failed
	w.OK += r.attempted - r.failed
	w.StatsMismatches += r.mismatches
	if r.firstErr != nil && w.FirstError == "" {
		w.FirstError = r.firstErr.Error()
	}
}

// result is the -out file.
type result struct {
	Env       envInfo           `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

// printTable writes one line per metric: workload, name, value, unit and an
// optional remark after '#'.
func printTable(w io.Writer, res *workloadResult, defs []metricDef, vals map[string]metricValue) {
	if vals == nil {
		return
	}
	for _, d := range defs {
		v := vals[d.Name]
		line := fmt.Sprintf("%-16s %-36s %16.6g %s", res.Name, d.Name, v.Value, v.Unit)
		if len(v.Reps) > 0 {
			line += fmt.Sprintf("  # reps %.6g", v.Reps)
		}
		if n := res.notes[d.Name]; n != "" {
			line += "  # " + n
		}
		fmt.Fprintln(w, line)
	}
}

// contractLine is the last line of a single-workload run: the object the
// benchmark driver reads.
func contractLine(res *workloadResult, vals map[string]metricValue) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(vals))
	for name, v := range vals {
		metrics[name] = mv{v.Value, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
