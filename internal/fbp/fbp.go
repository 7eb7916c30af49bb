// Package fbp is the dataflow pipeline layer (ROADMAP item 2): a minimal
// flow-based-programming graph language compiled to streaming multi-MPU
// programs.
//
// A graph is a list of connections between named nodes,
//
//	src(Split) OUT[0] -> IN sum(Map)
//	'vecadd' -> KERNEL sum
//
// where each node instantiates a component from the registry (Map over any
// catalog kernel, Split/Merge/Filter/Reduce streaming primitives, and the
// EDStep/LLMCoord/LLMWorker components that emit the apps' own programs).
// IIP literals ('value' -> PORT node) bind component parameters.
//
// The compiler places node i of the graph (first-appearance order) on MPU i
// of the noc mesh, lowers every edge to a SEND/RECV rendezvous with a legal
// X-Y route, emits each node body through ezpim, and verifies the whole
// program set with the machine-level linter (commlint): a graph that
// compiles is lint- and deadlock-clean by construction. Errors are typed —
// *ParseError for grammar violations, *CompileError for component misuse,
// *LintError carrying the full findings report for geometry and
// communication rejections — so mpud can map them onto its 400/422
// admission envelope.
package fbp

import (
	"fmt"

	"mpu/internal/lint"
)

// Port identifies one endpoint port: a name plus an optional index for
// array ports (OUT[2]). Index is -1 when the port is unindexed.
type Port struct {
	Name  string
	Index int
}

func (p Port) String() string {
	if p.Index < 0 {
		return p.Name
	}
	return fmt.Sprintf("%s[%d]", p.Name, p.Index)
}

// Node is one process of the graph. Index is the node's position in
// first-appearance order — the MPU it is placed on.
type Node struct {
	Name      string
	Component string
	Index     int
	Params    map[string]string // IIP bindings, port name lower-cased
	Line      int               // first-appearance source line
}

// Edge is one connection: data flows From.FromPort -> To.ToPort.
type Edge struct {
	From, To         int // node indices
	FromPort, ToPort Port
	Line             int
}

// Graph is a parsed pipeline definition.
type Graph struct {
	Nodes []*Node
	Edges []Edge
}

// Node returns the named node, or nil.
func (g *Graph) Node(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// ParseError reports a grammar violation with its 1-based source line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("fbp: line %d: %s", e.Line, e.Msg) }

// CompileError reports a component-level rejection (unknown component, bad
// parameter, malformed topology) attributed to a node.
type CompileError struct {
	Node string
	Msg  string
}

func (e *CompileError) Error() string {
	if e.Node == "" {
		return "fbp: " + e.Msg
	}
	return fmt.Sprintf("fbp: node %s: %s", e.Node, e.Msg)
}

// LintError carries the machine-level verification report of a graph whose
// node programs built but whose composition was rejected — geometry
// overflow, illegal routes, unmatched rendezvous, or a deadlock
// counterexample. The findings feed mpud's typed 422 admission envelope.
type LintError struct {
	Report *lint.Report
}

func (e *LintError) Error() string {
	return fmt.Sprintf("fbp: pipeline rejected by machine verification: %d error finding(s)", len(e.Report.Errs()))
}
