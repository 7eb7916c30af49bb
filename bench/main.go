// Command bench is the repository's benchmark: seven named workloads, each
// measured end to end (untraced) and layer by layer (a second, traced run),
// with every result checked against simulated-stats references.
//
//	go run ./bench                                  every workload, both runs
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	go run ./bench -compare old.json new.json
//
// The second form is what BENCHMARK.json declares: one workload, end-to-end
// metrics with -trace 0 and per-layer metrics with -trace 1, and one JSON
// object as the last line of standard output. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload and end with the driver's JSON line (default: every workload)")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 12, "measured seconds per workload and run")
		trace    = fs.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		out      = fs.String("out", "", "write the results as JSON to this file")
		traceOut = fs.String("trace-out", "bench/out/trace.jsonl", "write the traced run's spans to this file")
		compare  = fs.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
		golden   = fs.Bool("update-golden", false, "pin this seed's reference digests under bench/golden/")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files: old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *trace < -1 || *trace > 1 || *traceOut == "" {
		fs.Usage()
		return 2
	}
	// The load shape assumes one client goroutine per CPU at most; more
	// runnable threads than CPUs would put scheduler delay into every latency.
	if runtime.GOMAXPROCS(0) > nproc {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS %d exceeds the %d CPUs of this host\n", runtime.GOMAXPROCS(0), nproc)
		return 1
	}
	o := options{
		workload: *workload, seed: *seed, trace: *trace, sz: &fullSizes, setups: 5,
		window: time.Duration(*seconds * float64(time.Second)),
		out:    *out, traceOut: *traceOut, updateGolden: *golden,
	}
	if o.workload == "" {
		return executeEach(o, stdout, stderr)
	}
	return execute(o, stdout, stderr)
}

// executeEach runs every workload in a process of its own, as the driver
// does, and gathers the results. In one process the workloads would share a
// heap: the memo tables and machines the simulators leave behind make the
// collector run a fraction as often, and the allocation-heavy request
// workloads then read half as fast again as they do alone — which is how
// mpud runs them.
func executeEach(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	start := time.Now()
	res := result{Env: newEnv(o.seed, start)}
	dir := filepath.Dir(o.traceOut)
	var spans []string
	code := 0
	report := func(err error) {
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	for _, w := range allWorkloads {
		out, tr := filepath.Join(dir, w.name+".json"), filepath.Join(dir, w.name+".jsonl")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.window.Seconds()),
			"-trace", fmt.Sprint(o.trace), "-out", out, "-trace-out", tr}
		if o.updateGolden {
			args = append(args, "-update-golden")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			report(fmt.Errorf("%s: %w", w.name, err))
		}
		one, err := readResult(out)
		if err != nil {
			report(err)
			continue
		}
		res.Workloads = append(res.Workloads, one.Workloads...)
		_ = os.Remove(out) // gathered into res
		spans = append(spans, tr)
	}
	res.Env.WallS = time.Since(start).Seconds()
	if o.trace != 0 {
		report(gather(o.traceOut, spans))
	}
	if o.out != "" {
		report(writeJSON(o.out, &res))
	}
	return code
}

// gather concatenates the parts into path and removes them.
func gather(path string, parts []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, part := range parts {
		b, err := os.ReadFile(part)
		if err == nil {
			_, err = f.Write(b)
		}
		if err != nil {
			f.Close()
			return err
		}
		_ = os.Remove(part) // gathered into path
	}
	return f.Close()
}

// options is one invocation of the benchmark.
type options struct {
	workload     string // empty: every workload
	seed         int64
	trace        int // 0 untraced only, 1 traced only, -1 both
	sz           *sizes
	setups       int // set-ups per workload; setup_s is the fastest
	window       time.Duration
	out          string
	traceOut     string
	updateGolden bool
}

func execute(o options, stdout, stderr io.Writer) int {
	ws := allWorkloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		ws = []*workloadDef{w}
	}

	start := time.Now()
	r := &runner{seed: o.seed, sz: o.sz, window: o.window, setups: o.setups, reps: 3}
	res := result{Env: newEnv(o.seed, start)}
	for _, w := range ws {
		res.Workloads = append(res.Workloads, &workloadResult{Name: w.name})
	}
	var err error
	if o.trace != 1 {
		err = r.endToEnd(ws, res.Workloads)
	}
	var tracers []*tracer
	if err == nil && o.trace != 0 {
		tracers, err = r.traced(ws, res.Workloads)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res.Env.WallS = time.Since(start).Seconds()

	code := 0
	report := func(err error) {
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	for _, w := range res.Workloads {
		printTable(stdout, w, endToEnd, w.Metrics)
		printTable(stdout, w, perLayer, w.Layers)
		if o.updateGolden {
			report(writeGolden("bench", w.Name, o.seed, w.Digest))
		}
		if !w.correct() {
			report(fmt.Errorf("%s: output check failed: %d of %d failed, %d stats mismatches: %s",
				w.Name, w.Failed, w.Attempted, w.StatsMismatches, w.FirstError))
		}
	}
	if len(tracers) > 0 && o.traceOut != "" {
		report(writeSpans(o.traceOut, tracers))
	}
	if o.out != "" {
		report(writeJSON(o.out, &res))
	}
	if o.workload != "" && o.trace >= 0 { // the driver's form
		w := res.Workloads[0]
		vals := w.Metrics
		if o.trace == 1 {
			vals = w.Layers
		}
		line, err := contractLine(w, vals)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}
