package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) *manifest {
	t.Helper()
	b, err := repoFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &m
}

// BENCHMARK.json and the catalogue in this package declare the same thing.
func TestManifestMatchesCatalogue(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads declared, %d built", len(m.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), built %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, c := range []struct {
		kind      string
		got, want []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d declared, %d in the catalogue", c.kind, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: declared %+v, catalogue %+v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
	if len(m.Paths) != 1 || filepath.Clean(m.Paths[0]) != "bench" {
		t.Errorf("paths %v", m.Paths)
	}
}

var tableLine = regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)(\s+#.*)?$`)

// Every workload, tiny, through both runs: the (workload, metric) names
// printed are exactly the ones BENCHMARK.json declares, each with a unit.
func TestSmokePrintsExactlyTheDeclaredMetrics(t *testing.T) {
	m := readManifest(t)
	var stdout, stderr bytes.Buffer
	o := options{seed: 3, trace: -1, sz: &tinySizes, setups: 1, window: 240 * time.Millisecond, out: filepath.Join(t.TempDir(), "r.json"), traceOut: filepath.Join(t.TempDir(), "t.jsonl")}
	if code := execute(o, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		units[d.Name] = d.Unit
	}
	want := map[string]bool{}
	for _, w := range m.Workloads {
		for name := range units {
			want[w.Name+" "+name] = true
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		f := tableLine.FindStringSubmatch(line)
		if f == nil {
			t.Errorf("line carries no workload, metric, value and unit: %q", line)
			continue
		}
		key := f[1] + " " + f[2]
		switch {
		case !name.MatchString(f[1]) || !name.MatchString(f[2]):
			t.Errorf("ill-formed name in %q", line)
		case !want[key]:
			t.Errorf("printed but not declared (or printed twice): %s", key)
		case units[f[2]] != f[4]:
			t.Errorf("%s: unit %q, declared %q", key, f[4], units[f[2]])
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("declared but not printed: %s", key)
	}

	// The result file carries the host, and per workload the counts and the
	// repetitions behind each median.
	res, err := readResult(o.out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Env.NProc < 1 || res.Env.GOMAXPROCS > res.Env.NProc || res.Env.GoVersion == "" || res.Env.Seed != 3 || res.Env.WallS <= 0 {
		t.Errorf("env %+v", res.Env)
	}
	for _, w := range res.Workloads {
		if w.Attempted < 1 || w.OK != w.Attempted || w.Failed != 0 || w.StatsMismatches != 0 {
			t.Errorf("%s: attempted %d ok %d failed %d mismatches %d: %s", w.Name, w.Attempted, w.OK, w.Failed, w.StatsMismatches, w.FirstError)
		}
		for _, d := range endToEnd {
			if v := w.Metrics[d.Name]; v.Value <= 0 || len(v.Reps) == 0 {
				t.Errorf("%s %s: %+v", w.Name, d.Name, v)
			}
		}
	}
}

// The driver's form: one workload, one JSON object as the last line with
// exactly the declared metrics of the run it asked for.
func TestDriverLine(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var stdout, stderr bytes.Buffer
		o := options{workload: "sim-dynamic", seed: 1, trace: trace, sz: &tinySizes, setups: 1, window: 60 * time.Millisecond}
		if code := execute(o, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %d: last line %s", trace, lines[len(lines)-1])
		}
		if len(got.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics, %d declared", trace, len(got.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := got.Metrics[d.Name]; !ok || v.Value == nil || v.Unit != d.Unit {
				t.Errorf("trace %d: %s: %+v", trace, d.Name, v)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := execute(options{workload: "no-such", sz: &tinySizes, setups: 1}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("an unknown workload: exit %d, printed %q", code, stdout.String())
	}
}
