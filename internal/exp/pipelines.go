package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mpu/internal/backends"
	"mpu/internal/fbp"
	"mpu/internal/lint"
	"mpu/internal/machine"
)

// The pipelines experiment: every shipped .fbp graph is compiled for every
// back end, machine-level verified (the compiler routes through commlint, so
// a finding here is a compiler regression, not a user error), and executed
// once offline — the mastodon counterpart of `mpurun file.fbp`, proving the
// graphs run end-to-end without a daemon before any of them is used in a
// study.

// PipelineRow is one (graph, backend) cell of the sweep.
type PipelineRow struct {
	Graph    string // file base name
	Backend  string
	Nodes    int
	MPUs     int
	Hops     int
	Errors   int
	Warnings int
	Cycles   int64 // one offline run in MPU mode
}

// PipelinesResult is the full compile+verify+run sweep.
type PipelinesResult struct {
	Rows []PipelineRow
}

// Pipelines compiles every .fbp graph under dir for every back end, counts
// the verifier findings, and runs each placement once offline.
func Pipelines(opts Options, dir string) (*PipelinesResult, error) {
	opts = opts.norm()
	paths, err := filepath.Glob(filepath.Join(dir, "*.fbp"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("exp: no .fbp graphs under %s", dir)
	}
	sort.Strings(paths)
	specs := append(backends.All(), backends.SIMDRAM())
	res := &PipelinesResult{}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		graph := strings.TrimSuffix(filepath.Base(path), ".fbp")
		for _, spec := range specs {
			c, err := fbp.CompileSource(string(src), fbp.Options{Spec: spec})
			if err != nil {
				return nil, fmt.Errorf("exp: pipelines %s/%s: %w", graph, spec.Name, err)
			}
			m, err := machine.New(machine.Config{
				Spec: spec, NumMPUs: c.MPUs, Workers: opts.MachineWorkers,
				NoTrace: opts.NoTrace,
			})
			if err != nil {
				return nil, fmt.Errorf("exp: pipelines %s/%s: %w", graph, spec.Name, err)
			}
			for mpu, p := range c.Programs {
				if err := m.LoadProgram(mpu, p); err != nil {
					return nil, fmt.Errorf("exp: pipelines %s/%s: %w", graph, spec.Name, err)
				}
			}
			st, err := m.Run()
			if err != nil {
				return nil, fmt.Errorf("exp: pipelines %s/%s: %w", graph, spec.Name, err)
			}
			res.Rows = append(res.Rows, PipelineRow{
				Graph: graph, Backend: spec.Name,
				Nodes: len(c.Nodes), MPUs: c.MPUs, Hops: c.Hops,
				Errors:   c.Report.Count(lint.Error),
				Warnings: c.Report.Count(lint.Warning),
				Cycles:   st.Cycles,
			})
		}
	}
	return res, nil
}

// Clean reports whether every cell compiled and verified without findings.
func (r *PipelinesResult) Clean() bool {
	for _, row := range r.Rows {
		if row.Errors > 0 || row.Warnings > 0 {
			return false
		}
	}
	return true
}

// Render formats the sweep as one table: every graph on every back end with
// its placement and one offline run's cycle count.
func (r *PipelinesResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pipelines: FBP graph compilation, verification, and offline execution\n")
	fmt.Fprintf(&sb, "%-20s %-13s %5s %5s %5s %7s %9s %10s\n",
		"graph", "backend", "nodes", "mpus", "hops", "errors", "warnings", "cycles")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-20s %-13s %5d %5d %5d %7d %9d %10d\n",
			row.Graph, row.Backend, row.Nodes, row.MPUs, row.Hops, row.Errors, row.Warnings, row.Cycles)
	}
	return sb.String()
}
