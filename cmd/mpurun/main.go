// Command mpurun executes an MPU assembly (.masm), ezpim (.ez), or FBP
// pipeline (.fbp) program on a simulated chip and reports the run
// statistics.
//
// Usage:
//
//	mpurun [-backend racer|mimdram|dcache] [-mode mpu|baseline] [-mpus N] [-j N]
//	       [-nolint] [-notrace] [-set rfh.vrf.reg=v1,v2,...]... [-dump rfh.vrf.reg]... file
//
// -set preloads a vector register on MPU 0 before the run; -dump prints one
// after it. The same binary is loaded into every MPU (SPMD). -j runs the
// simulated MPUs on N scheduler goroutines between communication points
// (0 = one per CPU, 1 = sequential); statistics are identical either way.
//
// A .fbp file compiles as a dataflow pipeline instead: each graph node
// places on its own MPU (the compiler reports the placement; -mpus is
// ignored) and the per-node ensemble programs are machine-verified by
// construction. For pipelines, -set and -dump take an optional node prefix
// ("node:rfh.vrf.reg"), addressing that node's MPU; without a prefix they
// address MPU 0.
// Before loading, the program is preflighted by the machine-level linter
// against the selected back end and MPU count: per-core structural checks
// plus the cross-MPU communication checks (rendezvous matching, route
// legality, deadlock-freedom — see docs/LINT.md). Error findings abort the
// run (and warnings are printed); -nolint skips the preflight to reproduce
// raw machine faults. -lint stops after the preflight and prints the full
// report; with -json the findings are emitted as stable JSON for CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mpu"
	"mpu/internal/exp"
)

type repeatFlag []string

func (r *repeatFlag) String() string     { return strings.Join(*r, ";") }
func (r *repeatFlag) Set(s string) error { *r = append(*r, s); return nil }

func main() {
	backend := flag.String("backend", "racer", "back end: racer, mimdram, dcache")
	mode := flag.String("mode", "mpu", "execution mode: mpu or baseline")
	mpus := flag.Int("mpus", 1, "number of MPUs to instantiate")
	stats := flag.Bool("stats", false, "print a static analysis of the binary before running")
	lintOnly := flag.Bool("lint", false, "preflight only: print the machine-level lint report and exit without running")
	nolint := flag.Bool("nolint", false, "skip the static lint preflight")
	notrace := flag.Bool("notrace", false, "disable the ensemble trace engine (interpret every scheduling round)")
	jobs := flag.Int("j", 0, "machine scheduler workers running MPUs concurrently (0 = one per CPU, 1 = sequential)")
	jsonOut := flag.Bool("json", false, "print the run statistics as stable JSON instead of text")
	csvDir := flag.String("csv", "", "also write the run statistics as CSV into this directory (created if missing)")
	var sets, dumps repeatFlag
	flag.Var(&sets, "set", "preload a register: rfh.vrf.reg=v1,v2,... (repeatable)")
	flag.Var(&dumps, "dump", "print a register after the run: rfh.vrf.reg (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mpurun [flags] file.{masm,ez}")
		flag.PrintDefaults()
		os.Exit(2)
	}
	opts := runOpts{
		backend: *backend, mode: *mode, mpus: *mpus, sets: sets, dumps: dumps,
		stats: *stats, lintOnly: *lintOnly, nolint: *nolint, notrace: *notrace,
		jobs: *jobs, jsonOut: *jsonOut, csvDir: *csvDir,
	}
	if err := run(flag.Arg(0), opts); err != nil {
		fmt.Fprintf(os.Stderr, "mpurun: %v\n", err)
		os.Exit(1)
	}
}

// runOpts mirrors the command-line flags.
type runOpts struct {
	backend, mode string
	mpus          int
	sets, dumps   []string
	stats         bool
	lintOnly      bool
	nolint        bool
	notrace       bool
	jobs          int
	jsonOut       bool
	csvDir        string
}

func run(path string, o runOpts) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".fbp") {
		return runPipeline(path, string(src), o)
	}
	var prog mpu.Program
	var lines []int
	if strings.HasSuffix(path, ".ez") {
		res, err := mpu.CompileEzpim(string(src))
		if err != nil {
			return err
		}
		prog = res.Program
	} else {
		if prog, lines, err = mpu.AssembleWithLines(string(src)); err != nil {
			return err
		}
	}
	if o.stats {
		fmt.Print(mpu.Analyze(prog))
	}
	spec, err := mpu.BackendByName(o.backend)
	if err != nil {
		return err
	}
	if !o.nolint || o.lintOnly {
		// Machine-level preflight: per-core structural lint plus the commlint
		// composition over the SPMD set the machine will actually load.
		report := mpu.LintSPMD(prog, o.mpus, mpu.MachineLintOptions{Spec: spec, Lines: [][]int{lines}})
		if o.lintOnly {
			return emitLintReport(report, o.jsonOut)
		}
		// Warnings are surfaced; Info observations (e.g. reads of -set
		// preloaded registers) stay quiet.
		for _, f := range report.Findings {
			if f.Severity == mpu.LintWarning {
				fmt.Fprintf(os.Stderr, "mpurun: %s\n", f)
			}
		}
		if err := report.Err(); err != nil {
			return fmt.Errorf("preflight failed (use -nolint to run anyway): %w", err)
		}
	}
	var mode mpu.Mode
	switch strings.ToLower(o.mode) {
	case "mpu":
		mode = mpu.ModeMPU
	case "baseline":
		mode = mpu.ModeBaseline
	default:
		return fmt.Errorf("unknown mode %q", o.mode)
	}
	m, err := mpu.NewMachine(mpu.MachineConfig{Spec: spec, Mode: mode, NumMPUs: o.mpus, NoTrace: o.notrace, Workers: o.jobs})
	if err != nil {
		return err
	}
	if err := m.LoadAll(prog); err != nil {
		return err
	}
	for _, s := range o.sets {
		addr, reg, vals, err := parseSet(s)
		if err != nil {
			return err
		}
		if err := m.WriteVector(0, addr, reg, vals); err != nil {
			return err
		}
	}
	st, err := m.Run()
	if err != nil {
		return err
	}
	resolve := func(s string) (int, mpu.VRFAddr, int, error) {
		addr, reg, err := parseAddr(s)
		return 0, addr, reg, err
	}
	return emitResults(path, spec, mode, o.mpus, st, m, o, resolve)
}

// emitResults prints the run's statistics (text or stable JSON), optionally
// writes the CSV row, and dumps the requested registers. resolve maps one
// -dump operand to its MPU and register address (pipelines accept a node
// prefix; flat programs always read MPU 0).
func emitResults(path string, spec *mpu.Backend, mode mpu.Mode, mpus int, st *mpu.Stats, m *mpu.Machine, o runOpts, resolve func(string) (int, mpu.VRFAddr, int, error)) error {
	if o.jsonOut {
		// The stats object uses the stable machine.Stats encoding shared
		// with mpud responses.
		env := struct {
			Backend string     `json:"backend"`
			Mode    string     `json:"mode"`
			MPUs    int        `json:"mpus"`
			Seconds float64    `json:"seconds"`
			Joules  float64    `json:"joules"`
			Stats   *mpu.Stats `json:"stats"`
		}{spec.Name, mode.String(), mpus, st.TimeSeconds(spec.ClockGHz), st.TotalEnergyPJ() * 1e-12, st}
		b, err := json.Marshal(&env)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		fmt.Printf("backend=%s mode=%s mpus=%d\n", spec.Name, mode, mpus)
		fmt.Printf("cycles=%d time=%.3gs instructions=%d micro-ops=%d rounds=%d\n",
			st.Cycles, st.TimeSeconds(spec.ClockGHz), st.Instructions, st.MicroOps, st.Rounds)
		if st.TraceHits+st.TraceMisses+st.TraceFallbacks > 0 {
			fmt.Printf("trace: hits=%d misses=%d fallbacks=%d\n",
				st.TraceHits, st.TraceMisses, st.TraceFallbacks)
		}
		if st.JITCompiles+st.JITReplays > 0 {
			fmt.Printf("jit: compiles=%d replays=%d\n", st.JITCompiles, st.JITReplays)
		}
		fmt.Printf("offloads=%d energy=%.3gJ (datapath %.3g, frontend %.3g, noc %.3g, host %.3g)\n",
			st.Offloads, st.TotalEnergyPJ()*1e-12,
			st.DatapathEnergyPJ*1e-12, (st.FrontendStaticPJ+st.FrontendDynamicPJ)*1e-12,
			st.NoCEnergyPJ*1e-12, st.HostEnergyPJ*1e-12)
	}
	if o.csvDir != "" {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		rows := [][]string{
			{"backend", "mode", "mpus", "cycles", "seconds", "instructions", "micro_ops",
				"rounds", "trace_hits", "trace_misses", "trace_fallbacks",
				"jit_compiles", "jit_replays", "offloads", "joules"},
			{spec.Name, mode.String(), strconv.Itoa(mpus),
				strconv.FormatInt(st.Cycles, 10),
				strconv.FormatFloat(st.TimeSeconds(spec.ClockGHz), 'g', -1, 64),
				strconv.FormatUint(st.Instructions, 10),
				strconv.FormatUint(st.MicroOps, 10),
				strconv.FormatUint(st.Rounds, 10),
				strconv.FormatUint(st.TraceHits, 10),
				strconv.FormatUint(st.TraceMisses, 10),
				strconv.FormatUint(st.TraceFallbacks, 10),
				strconv.FormatUint(st.JITCompiles, 10),
				strconv.FormatUint(st.JITReplays, 10),
				strconv.FormatUint(st.Offloads, 10),
				strconv.FormatFloat(st.TotalEnergyPJ()*1e-12, 'g', -1, 64)},
		}
		// exp.WriteCSV creates csvDir if missing.
		if err := exp.WriteCSV(o.csvDir, name, rows); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mpurun: CSV written to %s\n", filepath.Join(o.csvDir, name+".csv"))
	}
	for _, d := range o.dumps {
		id, addr, reg, err := resolve(d)
		if err != nil {
			return err
		}
		vals, err := m.ReadVector(id, addr, reg)
		if err != nil {
			return err
		}
		n := len(vals)
		if n > 16 {
			n = 16
		}
		fmt.Printf("%s = %v", d, vals[:n])
		if n < len(vals) {
			fmt.Printf(" ... (%d lanes)", len(vals))
		}
		fmt.Println()
	}
	return nil
}

// runPipeline compiles a .fbp graph and runs it once: every node on its own
// MPU, edges as verified SEND/RECV rendezvous. The placement is printed
// before the run; -set/-dump accept a "node:" prefix to address a node's
// MPU directly.
func runPipeline(path, src string, o runOpts) error {
	spec, err := mpu.BackendByName(o.backend)
	if err != nil {
		return err
	}
	c, err := mpu.CompileFBP(src, mpu.FBPOptions{Spec: spec})
	if err != nil {
		return err
	}
	if o.lintOnly {
		return emitLintReport(c.Report, o.jsonOut)
	}
	var mode mpu.Mode
	switch strings.ToLower(o.mode) {
	case "mpu":
		mode = mpu.ModeMPU
	case "baseline":
		mode = mpu.ModeBaseline
	default:
		return fmt.Errorf("unknown mode %q", o.mode)
	}
	nodeMPU := make(map[string]int, len(c.Nodes))
	if !o.jsonOut {
		fmt.Printf("pipeline: %d nodes on %d MPUs, %d mesh hops\n", len(c.Nodes), c.MPUs, c.Hops)
	}
	for _, n := range c.Nodes {
		nodeMPU[n.Name] = n.MPU
		if !o.jsonOut {
			fmt.Printf("  mpu%-3d %s(%s)\n", n.MPU, n.Name, n.Component)
		}
	}
	m, err := mpu.NewMachine(mpu.MachineConfig{
		Spec: spec, Mode: mode, NumMPUs: c.MPUs, NoTrace: o.notrace, Workers: o.jobs,
	})
	if err != nil {
		return err
	}
	for id, p := range c.Programs {
		if err := m.LoadProgram(id, p); err != nil {
			return err
		}
	}
	resolve := func(s string) (int, mpu.VRFAddr, int, error) {
		rest := s
		id := 0
		if i := strings.IndexByte(s, ':'); i >= 0 {
			node, ok := nodeMPU[s[:i]]
			if !ok {
				return 0, mpu.VRFAddr{}, 0, fmt.Errorf("%q names no pipeline node", s[:i])
			}
			id, rest = node, s[i+1:]
		}
		addr, reg, err := parseAddr(rest)
		return id, addr, reg, err
	}
	for _, s := range o.sets {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("bad -set %q (want [node:]rfh.vrf.reg=v1,v2,...)", s)
		}
		id, addr, reg, err := resolve(s[:eq])
		if err != nil {
			return err
		}
		vals, err := parseValues(s[eq+1:])
		if err != nil {
			return fmt.Errorf("bad -set %q: %w", s, err)
		}
		if err := m.WriteVector(id, addr, reg, vals); err != nil {
			return err
		}
	}
	st, err := m.Run()
	if err != nil {
		return err
	}
	return emitResults(path, spec, mode, c.MPUs, st, m, o, resolve)
}

// emitLintReport prints the -lint mode result: the full text report, or —
// with -json — the stable findings envelope {"ok": bool, "findings": [...]}
// CI pipelines consume. The returned error is non-nil when the report
// carries Error findings, so the process exits 1 on a rejected program.
func emitLintReport(report *mpu.LintReport, jsonOut bool) error {
	if jsonOut {
		findings := report.Findings
		if findings == nil {
			findings = []mpu.LintFinding{}
		}
		env := struct {
			OK       bool              `json:"ok"`
			Findings []mpu.LintFinding `json:"findings"`
		}{report.Ok(), findings}
		b, err := json.Marshal(&env)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		fmt.Print(report)
	}
	if !report.Ok() {
		return fmt.Errorf("lint: %d error finding(s)", len(report.Errs()))
	}
	return nil
}

func parseAddr(s string) (mpu.VRFAddr, int, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 3 {
		return mpu.VRFAddr{}, 0, fmt.Errorf("bad address %q (want rfh.vrf.reg)", s)
	}
	nums := make([]int, 3)
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return mpu.VRFAddr{}, 0, fmt.Errorf("bad address %q: %v", s, err)
		}
		nums[i] = n
	}
	return mpu.VRFAddr{RFH: uint8(nums[0]), VRF: uint8(nums[1])}, nums[2], nil
}

func parseSet(s string) (mpu.VRFAddr, int, []uint64, error) {
	eq := strings.IndexByte(s, '=')
	if eq < 0 {
		return mpu.VRFAddr{}, 0, nil, fmt.Errorf("bad -set %q (want rfh.vrf.reg=v1,v2,...)", s)
	}
	addr, reg, err := parseAddr(s[:eq])
	if err != nil {
		return mpu.VRFAddr{}, 0, nil, err
	}
	vals, err := parseValues(s[eq+1:])
	if err != nil {
		return mpu.VRFAddr{}, 0, nil, fmt.Errorf("bad value in %q: %v", s, err)
	}
	return addr, reg, vals, nil
}

func parseValues(s string) ([]uint64, error) {
	var vals []uint64
	for _, v := range strings.Split(s, ",") {
		x, err := strconv.ParseUint(strings.TrimSpace(v), 0, 64)
		if err != nil {
			return nil, err
		}
		vals = append(vals, x)
	}
	return vals, nil
}
