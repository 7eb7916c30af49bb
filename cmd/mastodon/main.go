// Command mastodon regenerates the paper's tables and figures (the Go
// counterpart of the MASTODON simulation testbed [12]).
//
// Usage:
//
//	mastodon [-scale N] [-seed S] [-j N] [-mj N] [-notrace] <experiment>...
//
// Experiments: preflight fig1 table1 fig5 table3 fig11 fig12 fig13 table4
// fig14 fig15 scale ablations pipelines all. preflight statically verifies
// every kernel and application with the machine-level linter (commlint)
// before any cycles are simulated; pipelines compiles every shipped .fbp
// dataflow graph (-fbp names the directory) for every back end, checks the
// verifier findings, and runs each placement once offline.
// Scale divides the evaluation working-set sizes (1 =
// paper scale; larger is faster). -j fans independent sweep cells out across
// N workers (0 = one per CPU; 1 = sequential); -mj sets the scheduler
// workers running each cell's simulated MPUs concurrently between
// communication points (0 = share the CPU budget with -j; 1 = sequential).
// Output is byte-identical at any worker count. -notrace disables the
// ensemble trace engine, forcing every scheduling round through the
// interpreter — byte-identical, just slower (the parity is test-pinned).
package main

import (
	"flag"
	"fmt"
	"os"

	"mpu/internal/backends"
	"mpu/internal/exp"
	"mpu/internal/tune"
	"mpu/internal/workloads"
)

func main() {
	scale := flag.Int("scale", 1, "divide working-set sizes by N (1 = full evaluation scale)")
	seed := flag.Int64("seed", 1, "input generator seed")
	jobs := flag.Int("j", 0, "sweep worker count (0 = one per CPU, 1 = sequential)")
	mjobs := flag.Int("mj", 0, "machine scheduler workers per sweep cell (0 = share the CPU budget with -j, 1 = sequential)")
	csvDir := flag.String("csv", "", "also export machine-readable CSVs into this directory")
	noTrace := flag.Bool("notrace", false, "disable the ensemble trace engine (interpret every scheduling round)")
	fbpDir := flag.String("fbp", "examples/pipelines", "directory of .fbp graphs for the pipelines experiment")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mastodon [-scale N] [-seed S] [-j N] [-mj N] [-notrace] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: preflight fig1 table1 fig5 table3 fig11 fig12 fig13 table4 fig14 fig15 scale ablations autotune pipelines all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	opts := exp.Options{Scale: *scale, Seed: *seed, Workers: *jobs, MachineWorkers: *mjobs, NoTrace: *noTrace}
	if *csvDir != "" {
		if err := exp.ExportAll(*csvDir, opts); err != nil {
			fmt.Fprintf(os.Stderr, "mastodon: csv export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mastodon: CSVs written to %s\n", *csvDir)
	}
	for _, name := range flag.Args() {
		if err := run(name, opts, *fbpDir); err != nil {
			fmt.Fprintf(os.Stderr, "mastodon: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func run(name string, opts exp.Options, fbpDir string) error {
	switch name {
	case "all":
		for _, n := range []string{"preflight", "pipelines", "fig1", "table1", "fig5", "table3", "fig11",
			"fig12", "fig13", "table4", "fig14", "fig15", "scale", "ablations", "autotune"} {
			if err := run(n, opts, fbpDir); err != nil {
				return err
			}
		}
		return nil
	case "preflight":
		r, err := exp.Preflight(opts)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
		if !r.Clean() {
			return fmt.Errorf("static verification found problems (see table above)")
		}
	case "pipelines":
		r, err := exp.Pipelines(opts, fbpDir)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
		if !r.Clean() {
			return fmt.Errorf("pipeline verification found problems (see table above)")
		}
	case "fig1":
		r, err := exp.Fig1(opts)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	case "table1":
		fmt.Println(exp.Table1())
	case "fig5":
		fmt.Println(exp.RenderFig5(exp.Fig5(opts)))
	case "table3":
		fmt.Println(exp.Table3())
	case "fig11":
		fmt.Println(exp.Fig11())
	case "fig12":
		rs, err := exp.Fig12(opts)
		if err != nil {
			return err
		}
		for _, r := range rs {
			fmt.Println(r.Render())
		}
	case "fig13":
		rs, err := exp.Fig13(opts)
		if err != nil {
			return err
		}
		for _, r := range rs {
			fmt.Println(r.Render())
		}
	case "table4":
		rows, err := exp.Table4(opts)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderTable4(rows))
	case "fig14":
		rows, err := exp.Fig14(opts)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFig14(rows))
	case "fig15":
		rows, err := exp.Fig15(opts)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFig15(rows))
	case "scale":
		rows, err := exp.Scale(opts)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderScale(rows))
	case "autotune":
		res, err := tune.ActivationLimit(tune.Config{
			Spec:   backends.RACER(),
			Kernel: workloads.ByName("vecadd"),
			Seed:   opts.Seed,
		})
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	case "ablations":
		r1, err := exp.AblationRecipeTable(opts)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderAblationRecipe(r1))
		r2, err := exp.AblationThermal(opts)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderAblationThermal(r2))
		r3, err := exp.AblationDivergence(opts)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderAblationDivergence(r3))
	default:
		return fmt.Errorf("unknown experiment (want preflight, pipelines, fig1, table1, fig5, table3, fig11, fig12, fig13, table4, fig14, fig15, scale, ablations, autotune, all)")
	}
	return nil
}
