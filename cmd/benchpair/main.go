// Command benchpair measures the working tree against a base revision with
// the repository's benchmark: it builds ./bench once from an export of the
// base revision and once from the working tree, runs the two binaries in
// alternating pairs (odd seeds base first, even seeds head first), keeps
// each run's last JSON line, and prints, for each workload and end-to-end
// metric BENCHMARK.json declares, both sides' medians and quartiles, how
// many pairs the head is ahead in, and a verdict: "ahead" or "behind" when
// at least 8 pairs in 10 go that way and the medians lie further apart than
// the base's interquartile range, else "unresolved".
//
// Usage, from the repository root:
//
//	go run ./cmd/benchpair -base <rev> [-pairs 10] [-workloads a,b] [-seconds 12] [-runs runs.jsonl]
//
// The base is exported with git archive into a temporary directory, which is
// removed afterwards, so the repository's own worktree list never changes.
// Each binary runs with its own checkout as working directory (bench's
// pipeline-stream reads examples/ from there) and writes its JSON report
// and spans into the temporary directory. -runs keeps every run's record:
// side, workload, seed, its last JSON line, and the host's CPU count,
// GOMAXPROCS and Go version.
package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// run is one bench invocation's record.
type run struct {
	Side       string          `json:"side"`
	Workload   string          `json:"workload"`
	Seed       int             `json:"seed"`
	NumCPU     int             `json:"nproc"`
	GOMAXPROCS string          `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	Result     json.RawMessage `json:"result"`
}

func main() {
	fs := flag.NewFlagSet("benchpair", flag.ExitOnError)
	var (
		base      = fs.String("base", "", "base revision (required)")
		pairs     = fs.Int("pairs", 10, "pairs of runs per workload")
		workloads = fs.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
		seconds   = fs.Float64("seconds", 12, "measured seconds per run")
		runsOut   = fs.String("runs", "", "write every run's record to this JSON-lines file")
	)
	fs.Parse(os.Args[1:])
	if *base == "" || *pairs < 1 {
		fs.Usage()
		os.Exit(2)
	}
	if err := benchpair(*base, *pairs, *workloads, *seconds, *runsOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func benchpair(base string, pairs int, only string, seconds float64, runsOut string, w io.Writer) error {
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
	}
	if err := readJSON("BENCHMARK.json", &decl); err != nil {
		return err
	}
	var names []string
	for _, wl := range decl.Workloads {
		names = append(names, wl.Name)
	}
	if only != "" {
		names = strings.Split(only, ",")
	}
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if err := export(base, baseDir); err != nil {
		return err
	}
	head, err := os.Getwd()
	if err != nil {
		return err
	}
	sides := map[string]struct{ dir, bin string }{
		"base": {baseDir, filepath.Join(tmp, "bench-base")},
		"head": {head, filepath.Join(tmp, "bench-head")},
	}
	for _, s := range sides {
		if err := command(s.dir, nil, "go", "build", "-o", s.bin, "./bench").Run(); err != nil {
			return fmt.Errorf("building %s/bench: %w", s.dir, err)
		}
	}
	goVersion, _ := command(head, nil, "go", "env", "GOVERSION").Output()
	var records []run
	for _, wl := range names {
		for seed := 1; seed <= pairs; seed++ {
			order := []string{"base", "head"}
			if seed%2 == 0 {
				order = []string{"head", "base"}
			}
			for _, side := range order {
				s := sides[side]
				out, err := command(s.dir, os.Stderr, s.bin, "-workload", wl, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0",
					"-out", filepath.Join(tmp, "out.json"), "-trace-out", filepath.Join(tmp, "trace.jsonl")).Output()
				if err != nil {
					return fmt.Errorf("%s %s seed %d: %w", side, wl, seed, err)
				}
				records = append(records, run{Side: side, Workload: wl, Seed: seed, NumCPU: runtime.NumCPU(),
					GOMAXPROCS: os.Getenv("GOMAXPROCS"), GoVersion: strings.TrimSpace(string(goVersion)), Result: lastJSON(out)})
			}
		}
	}
	if runsOut != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range records {
			enc.Encode(r)
		}
		if err := os.WriteFile(runsOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%d pairs, %gs runs, base %s, %d CPUs, %s\n\n", pairs, seconds, base, runtime.NumCPU(), strings.TrimSpace(string(goVersion)))
	fmt.Fprintln(w, "| workload | metric | base median (quartiles) | head median (quartiles) | head ahead | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, wl := range names {
		for _, m := range decl.EndToEnd {
			b, h := values(records, "base", wl, m.Name), values(records, "head", wl, m.Name)
			if len(b) != len(h) || len(b) == 0 {
				continue
			}
			c := compare(b, h, m.Better == "higher")
			fmt.Fprintf(w, "| %s | %s | %.4g (%.4g–%.4g) | %.4g (%.4g–%.4g) | %d/%d | %s |\n",
				wl, m.Name, c.base.median, c.base.q1, c.base.q3, c.head.median, c.head.q1, c.head.q3, c.ahead, len(b), c.verdict)
		}
	}
	return nil
}

// export writes the tree of rev into dir through git archive.
func export(rev, dir string) error {
	out, err := command(".", nil, "git", "archive", "--format=tar", rev).Output()
	if err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	tr := tar.NewReader(bytes.NewReader(out))
	for {
		h, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		p := filepath.Join(dir, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(p, 0o755)
		case tar.TypeReg:
			if err = os.MkdirAll(filepath.Dir(p), 0o755); err == nil {
				var data []byte
				if data, err = io.ReadAll(tr); err == nil {
					err = os.WriteFile(p, data, os.FileMode(h.Mode)&0o777)
				}
			}
		}
		if err != nil {
			return err
		}
	}
}

func command(dir string, stderr io.Writer, name string, args ...string) *exec.Cmd {
	c := exec.Command(name, args...)
	c.Dir, c.Stderr = dir, stderr
	return c
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// lastJSON returns the last line of out that parses as JSON, or null.
func lastJSON(out []byte) json.RawMessage {
	last := json.RawMessage("null")
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); json.Valid(line) && len(line) > 0 && line[0] == '{' {
			last = slices.Clone(line)
		}
	}
	return last
}

// values returns one side's readings of a metric on a workload, in seed
// order; a run that lacks the metric adds none.
func values(records []run, side, workload, name string) []float64 {
	var out []float64
	for _, r := range records {
		if r.Side != side || r.Workload != workload {
			continue
		}
		var res struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		// A run that printed no JSON line carries null, which has no metrics.
		_ = json.Unmarshal(r.Result, &res)
		if m, ok := res.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// summary is one side's median and quartiles.
type summary struct{ q1, median, q3 float64 }

// comparison is one workload × metric's reading over the pairs.
type comparison struct {
	base, head summary
	ahead      int // pairs in which head is better than base
	verdict    string
}

// compare judges paired readings b[i], h[i] of one metric: higherBetter
// says which way is better. The head is "ahead" when at least 8 in 10 pairs
// favour it and its median is better than the base's by more than the
// base's interquartile range, "behind" when the same holds the other way,
// else "unresolved".
func compare(b, h []float64, higherBetter bool) comparison {
	c := comparison{base: summarize(b), head: summarize(h), verdict: "unresolved"}
	better := func(x, y float64) bool { return x > y == higherBetter && x != y }
	behind := 0
	for i := range b {
		switch {
		case better(h[i], b[i]):
			c.ahead++
		case better(b[i], h[i]):
			behind++
		}
	}
	gap := c.head.median - c.base.median
	if gap < 0 {
		gap = -gap
	}
	decisive := gap > c.base.q3-c.base.q1
	switch {
	case decisive && 10*c.ahead >= 8*len(b) && better(c.head.median, c.base.median):
		c.verdict = "ahead"
	case decisive && 10*behind >= 8*len(b) && better(c.base.median, c.head.median):
		c.verdict = "behind"
	}
	return c
}

// summarize returns the median and quartiles of xs (linear interpolation
// between order statistics).
func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return summary{q(0.25), q(0.5), q(0.75)}
}
