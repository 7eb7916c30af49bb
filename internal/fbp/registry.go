package fbp

import (
	"fmt"
	"sort"
	"strconv"

	"mpu/internal/apps"
	"mpu/internal/backends"
	"mpu/internal/ezpim"
	"mpu/internal/workloads"
)

// Bound is one edge seen from a node: the peer MPU, this node's port, and
// the peer's port.
type Bound struct {
	Peer          int
	Local, Remote Port
}

// Ctx is the view a component gets while emitting its node's program.
// Ins/Outs are the node's edges sorted by peer MPU ascending — the order
// streaming components issue their RECVs and SENDs in, which together with
// the forward-edge rule keeps the rendezvous schedule deadlock-free.
type Ctx struct {
	B     *ezpim.Builder
	Spec  *backends.Spec
	Graph *Graph
	Node  *Node
	MPU   int
	Ins   []Bound
	Outs  []Bound
}

// Param documents one component parameter (bound by IIP).
type Param struct {
	Name, Doc, Default string
}

// Component is one registry entry: a node body generator.
type Component struct {
	Name   string
	Doc    string
	Params []Param
	Emit   func(c *Ctx) error
}

// Components returns the registry sorted by name.
func Components() []*Component {
	out := make([]*Component, 0, len(registry))
	for _, c := range registry {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the named component, or nil.
func Lookup(name string) *Component { return registry[name] }

func (c *Ctx) errf(format string, args ...any) error {
	return &CompileError{Node: c.Node.Name, Msg: fmt.Sprintf(format, args...)}
}

// checkParams rejects IIP bindings the component does not declare.
func (c *Ctx) checkParams(comp *Component) error {
	for k := range c.Node.Params {
		known := false
		for _, p := range comp.Params {
			if p.Name == k {
				known = true
				break
			}
		}
		if !known {
			return c.errf("unknown parameter %q for component %s", k, comp.Name)
		}
	}
	return nil
}

func (c *Ctx) strParam(name, def string) string {
	if v, ok := c.Node.Params[name]; ok {
		return v
	}
	return def
}

func (c *Ctx) intParam(name string, def, min, max int) (int, error) {
	v, ok := c.Node.Params[name]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, c.errf("parameter %s: %q is not an integer", name, v)
	}
	if n < min || n > max {
		return 0, c.errf("parameter %s: %d outside [%d,%d]", name, n, min, max)
	}
	return n, nil
}

func (c *Ctx) uintParam(name string, def uint64) (uint64, error) {
	v, ok := c.Node.Params[name]
	if !ok {
		return def, nil
	}
	n, err := strconv.ParseUint(v, 0, 64)
	if err != nil {
		return 0, c.errf("parameter %s: %q is not an unsigned integer", name, v)
	}
	return n, nil
}

// requireForward enforces the streaming-DAG placement rule: data flows from
// lower-placed nodes to higher-placed ones, so recv-before-send per node is
// a legal schedule (commlint proves the composition regardless).
func (c *Ctx) requireForward() error {
	for _, in := range c.Ins {
		if in.Peer >= c.MPU {
			return c.errf("edge from node on MPU %d: streaming inputs must come from earlier nodes (graph order is placement order)", in.Peer)
		}
	}
	for _, out := range c.Outs {
		if out.Peer <= c.MPU {
			return c.errf("edge to node on MPU %d: streaming outputs must go to later nodes (use EDStep for ring topologies)", out.Peer)
		}
	}
	return nil
}

// dstReg is the register a downstream edge receives into: the index of the
// peer's IN port (IN[3] lands in r3), r0 when unindexed.
func dstReg(out Bound) (int, error) {
	r := out.Remote.Index
	if r < 0 {
		r = 0
	}
	if r >= ezpim.UserRegs {
		return 0, fmt.Errorf("destination port %s names register %d beyond the %d user registers", out.Remote, r, ezpim.UserRegs)
	}
	return r, nil
}

// foldOp maps a Merge/Reduce op name to its builder emitter.
func foldOp(b *ezpim.Builder, name string) (func(rs, rt, rd int), error) {
	switch name {
	case "add":
		return b.Add, nil
	case "mul":
		return b.Mul, nil
	case "min":
		return b.Min, nil
	case "max":
		return b.Max, nil
	case "and":
		return b.And, nil
	case "or":
		return b.Or, nil
	case "xor":
		return b.Xor, nil
	}
	return nil, fmt.Errorf("unknown fold op %q (add, mul, min, max, and, or, xor)", name)
}

var registry = map[string]*Component{}

func register(c *Component) { registry[c.Name] = c }

func init() {
	register(&Component{
		Name: "Map",
		Doc:  "applies one catalog kernel to every record: inputs r0..rI-1, result in the kernel's output register, forwarded downstream into the peer's IN[i] register",
		Params: []Param{
			{Name: "kernel", Doc: "catalog kernel name (required)", Default: ""},
			{Name: "vrfs", Doc: "record VRFs per MPU", Default: "1"},
		},
		Emit: emitMap,
	})
	register(&Component{
		Name: "Split",
		Doc:  "fans the record out: forwards registers r0..regs-1 unchanged to every downstream node",
		Params: []Param{
			{Name: "regs", Doc: "leading registers to forward", Default: "1"},
			{Name: "vrfs", Doc: "record VRFs per MPU", Default: "1"},
		},
		Emit: emitSplit,
	})
	register(&Component{
		Name: "Merge",
		Doc:  "folds the contributions staged by its IN[i] edges (register i each) into one value with op, forwarded downstream",
		Params: []Param{
			{Name: "op", Doc: "fold operation: add, mul, min, max, and, or, xor", Default: "add"},
			{Name: "vrfs", Doc: "record VRFs per MPU", Default: "1"},
		},
		Emit: emitMerge,
	})
	register(&Component{
		Name: "Filter",
		Doc:  "zeroes every lane of the record register that falls below min (lane-predicated, no divergence)",
		Params: []Param{
			{Name: "reg", Doc: "record register to threshold", Default: "0"},
			{Name: "min", Doc: "keep lanes with value >= min", Default: "1"},
			{Name: "vrfs", Doc: "record VRFs per MPU", Default: "1"},
		},
		Emit: emitFilter,
	})
	register(&Component{
		Name: "Reduce",
		Doc:  "folds the record register into a resident accumulator that persists across streamed records (read it back with a dump)",
		Params: []Param{
			{Name: "op", Doc: "fold operation: add, mul, min, max, and, or, xor", Default: "add"},
			{Name: "reg", Doc: "record register folded in", Default: "0"},
			{Name: "into", Doc: "accumulator register", Default: "48"},
			{Name: "vrfs", Doc: "record VRFs per MPU", Default: "1"},
		},
		Emit: emitReduce,
	})
	register(&Component{
		Name: "EDStep",
		Doc:  "one position of the systolic edit-distance ring (§VIII-D): scores visiting queries against resident chunks and rotates them; IN/OUT edges must close an even-length ring in placement order",
		Params: []Param{
			{Name: "vrfs", Doc: "resident-read VRFs per MPU", Default: "4"},
			{Name: "steps", Doc: "systolic steps (default: full rotation)", Default: ""},
		},
		Emit: emitEDStep,
	})
	register(&Component{
		Name: "LLMCoord",
		Doc:  "llmencode coordinator (§VIII-D): broadcasts weights, scatters token batches over OUT[w], computes batch 0, gathers results over IN[w]; worker w must sit on MPU coord+w",
		Params: []Param{
			{Name: "vrfs", Doc: "token VRFs per participant", Default: "2"},
		},
		Emit: emitLLMCoord,
	})
	register(&Component{
		Name: "LLMWorker",
		Doc:  "llmencode worker: receives weights and its token batch from the coordinator, runs the encoder block, sends probabilities back into staging column w",
		Params: []Param{
			{Name: "vrfs", Doc: "token VRFs per participant", Default: "2"},
		},
		Emit: emitLLMWorker,
	})
}

func emitMap(c *Ctx) error {
	if err := c.requireForward(); err != nil {
		return err
	}
	kname := c.strParam("kernel", "")
	if kname == "" {
		return c.errf("Map requires a kernel parameter ('name' -> KERNEL %s)", c.Node.Name)
	}
	k := workloads.ByName(kname)
	if k == nil {
		return c.errf("unknown kernel %q", kname)
	}
	vrfs, err := c.intParam("vrfs", 1, 1, c.Spec.RFHsPerMPU)
	if err != nil {
		return err
	}
	addrs, pairs := apps.ColumnLayout(vrfs)
	b := c.B
	if k.Subs != nil {
		k.Subs(b)
	}
	for _, in := range c.Ins {
		b.Recv(in.Peer)
	}
	b.Ensemble(addrs, func() { k.Emit(b) })
	for _, out := range c.Outs {
		dst, err := dstReg(out)
		if err != nil {
			return c.errf("%v", err)
		}
		b.Send(out.Peer, pairs, func(t *ezpim.Transfer) {
			t.Copy(0, k.Out, 0, dst)
		})
	}
	return nil
}

func emitSplit(c *Ctx) error {
	if err := c.requireForward(); err != nil {
		return err
	}
	if len(c.Outs) == 0 {
		return c.errf("Split needs at least one OUT edge")
	}
	regs, err := c.intParam("regs", 1, 1, ezpim.UserRegs)
	if err != nil {
		return err
	}
	vrfs, err := c.intParam("vrfs", 1, 1, c.Spec.RFHsPerMPU)
	if err != nil {
		return err
	}
	_, pairs := apps.ColumnLayout(vrfs)
	b := c.B
	for _, in := range c.Ins {
		b.Recv(in.Peer)
	}
	for _, out := range c.Outs {
		b.Send(out.Peer, pairs, func(t *ezpim.Transfer) {
			for r := 0; r < regs; r++ {
				t.Copy(0, r, 0, r)
			}
		})
	}
	return nil
}

func emitMerge(c *Ctx) error {
	if err := c.requireForward(); err != nil {
		return err
	}
	if len(c.Ins) < 2 {
		return c.errf("Merge needs at least two IN edges")
	}
	vrfs, err := c.intParam("vrfs", 1, 1, c.Spec.RFHsPerMPU)
	if err != nil {
		return err
	}
	b := c.B
	fold, err := foldOp(b, c.strParam("op", "add"))
	if err != nil {
		return c.errf("%v", err)
	}
	// Each in-edge stages its contribution in the register its IN[i] port
	// names; the fold runs in index order into the lowest one.
	staged := make([]int, 0, len(c.Ins))
	seen := map[int]bool{}
	for _, in := range c.Ins {
		r := in.Local.Index
		if r < 0 {
			r = 0
		}
		if seen[r] {
			return c.errf("two IN edges stage into register %d — give each a distinct IN[i] index", r)
		}
		seen[r] = true
		staged = append(staged, r)
	}
	sort.Ints(staged)
	addrs, pairs := apps.ColumnLayout(vrfs)
	for _, in := range c.Ins {
		b.Recv(in.Peer)
	}
	acc := staged[0]
	b.Ensemble(addrs, func() {
		for _, r := range staged[1:] {
			fold(acc, r, acc)
		}
	})
	for _, out := range c.Outs {
		dst, err := dstReg(out)
		if err != nil {
			return c.errf("%v", err)
		}
		b.Send(out.Peer, pairs, func(t *ezpim.Transfer) {
			t.Copy(0, acc, 0, dst)
		})
	}
	return nil
}

func emitFilter(c *Ctx) error {
	if err := c.requireForward(); err != nil {
		return err
	}
	// The threshold broadcast lives in the top user register, clear of
	// record data and kernel scratch.
	const thr = ezpim.UserRegs - 1
	reg, err := c.intParam("reg", 0, 0, thr-1)
	if err != nil {
		return err
	}
	min, err := c.uintParam("min", 1)
	if err != nil {
		return err
	}
	vrfs, err := c.intParam("vrfs", 1, 1, c.Spec.RFHsPerMPU)
	if err != nil {
		return err
	}
	addrs, pairs := apps.ColumnLayout(vrfs)
	b := c.B
	for _, in := range c.Ins {
		b.Recv(in.Peer)
	}
	b.Ensemble(addrs, func() {
		b.Const(thr, min)
		b.If(ezpim.Lt(reg, thr), func() { b.Init0(reg) }, nil)
	})
	for _, out := range c.Outs {
		dst, err := dstReg(out)
		if err != nil {
			return c.errf("%v", err)
		}
		b.Send(out.Peer, pairs, func(t *ezpim.Transfer) {
			t.Copy(0, reg, 0, dst)
		})
	}
	return nil
}

func emitReduce(c *Ctx) error {
	if err := c.requireForward(); err != nil {
		return err
	}
	reg, err := c.intParam("reg", 0, 0, ezpim.UserRegs-1)
	if err != nil {
		return err
	}
	into, err := c.intParam("into", 48, 0, ezpim.UserRegs-1)
	if err != nil {
		return err
	}
	if into == reg {
		return c.errf("accumulator register %d collides with the record register", into)
	}
	vrfs, err := c.intParam("vrfs", 1, 1, c.Spec.RFHsPerMPU)
	if err != nil {
		return err
	}
	b := c.B
	fold, err := foldOp(b, c.strParam("op", "add"))
	if err != nil {
		return c.errf("%v", err)
	}
	addrs, pairs := apps.ColumnLayout(vrfs)
	for _, in := range c.Ins {
		b.Recv(in.Peer)
	}
	b.Ensemble(addrs, func() { fold(into, reg, into) })
	for _, out := range c.Outs {
		dst, err := dstReg(out)
		if err != nil {
			return c.errf("%v", err)
		}
		b.Send(out.Peer, pairs, func(t *ezpim.Transfer) {
			t.Copy(0, into, 0, dst)
		})
	}
	return nil
}

// ring walks the single-out-edge cycle this node sits on, checks every
// member is an EDStep, and returns the members in ring order starting here.
// Placement order must advance around the ring so that next == (id+1) mod
// ring, matching the hand-wired topology.
func (c *Ctx) ring() ([]*Node, error) {
	outOf := make(map[int]int, len(c.Graph.Nodes)) // node index -> successor
	for _, e := range c.Graph.Edges {
		if _, dup := outOf[e.From]; dup && c.Graph.Nodes[e.From].Component == "EDStep" {
			return nil, c.errf("EDStep node %s has two OUT edges", c.Graph.Nodes[e.From].Name)
		}
		outOf[e.From] = e.To
	}
	var members []*Node
	cur := c.Node.Index
	for {
		n := c.Graph.Nodes[cur]
		if n.Component != "EDStep" {
			return nil, c.errf("ring member %s is %s, not EDStep", n.Name, n.Component)
		}
		next, ok := outOf[cur]
		if !ok {
			return nil, c.errf("ring member %s has no OUT edge — EDStep edges must close a ring", n.Name)
		}
		members = append(members, n)
		cur = next
		if cur == c.Node.Index {
			break
		}
		if len(members) > len(c.Graph.Nodes) {
			return nil, c.errf("EDStep edges do not close a ring")
		}
	}
	return members, nil
}

// sameVRFs rejects a peer whose vrfs parameter (def when unbound) differs
// from this node's: a position holding fewer VRFs than its neighbours stops
// rotating their queries, and a worker holding fewer than its coordinator
// leaves batches ungathered, so the run would give wrong answers silently.
func (c *Ctx) sameVRFs(peer *Node, vrfs, def int) error {
	v := def
	if s, ok := peer.Params["vrfs"]; ok {
		n, err := strconv.Atoi(s)
		if err != nil {
			return c.errf("%s parameter vrfs: %q is not an integer", peer.Name, s)
		}
		v = n
	}
	if v != vrfs {
		return c.errf("vrfs %d here but %d on %s: the nodes of one ring or group must hold the same VRFs", vrfs, v, peer.Name)
	}
	return nil
}

func emitEDStep(c *Ctx) error {
	if len(c.Ins) != 1 || len(c.Outs) != 1 {
		return c.errf("EDStep needs exactly one IN and one OUT edge (a ring)")
	}
	members, err := c.ring()
	if err != nil {
		return err
	}
	ring := len(members)
	if ring%2 != 0 || ring < 2 {
		return c.errf("ring size %d must be even and >= 2 (the alternating send/recv phases need it)", ring)
	}
	if c.Outs[0].Peer != (c.MPU+1)%ring || c.Ins[0].Peer != (c.MPU+ring-1)%ring {
		return c.errf("ring must advance in placement order: OUT -> next node, so node i feeds node (i+1) mod %d", ring)
	}
	vrfs, err := c.intParam("vrfs", 4, 1, c.Spec.VRFsPerMPU())
	if err != nil {
		return err
	}
	for _, m := range members[1:] {
		if err := c.sameVRFs(m, vrfs, 4); err != nil {
			return err
		}
	}
	steps, err := c.intParam("steps", ring, 1, ring)
	if err != nil {
		return err
	}
	apps.EmitEditDistanceMPU(c.B, c.Spec, c.MPU, ring, vrfs, steps)
	return nil
}

func emitLLMCoord(c *Ctx) error {
	workers := len(c.Outs)
	if workers == 0 || len(c.Ins) != workers {
		return c.errf("LLMCoord needs matching OUT[w] -> worker and worker -> IN[w] edges (got %d out, %d in)", workers, len(c.Ins))
	}
	if workers >= c.Spec.VRFsPerRFH {
		return c.errf("%d workers exceed the coordinator's staging capacity (%d VRF columns)", workers, c.Spec.VRFsPerRFH)
	}
	vrfs, err := c.intParam("vrfs", 2, 1, c.Spec.RFHsPerMPU)
	if err != nil {
		return err
	}
	// OUT[w]/IN[w] indices double as the staging VRF column worker w's batch
	// and results occupy, so worker w must sit on MPU coord+w.
	for _, o := range c.Outs {
		w := o.Local.Index
		if w < 1 || w > workers {
			return c.errf("scatter port %s must be OUT[w] with w in 1..%d", o.Local, workers)
		}
		if o.Peer != c.MPU+w {
			return c.errf("worker on OUT[%d] sits on MPU %d, want MPU %d (staging column w)", w, o.Peer, c.MPU+w)
		}
		if peer := c.Graph.Nodes[o.Peer]; peer.Component == "LLMWorker" {
			if err := c.sameVRFs(peer, vrfs, 2); err != nil {
				return err
			}
		}
	}
	for _, in := range c.Ins {
		w := in.Local.Index
		if w < 1 || w > workers {
			return c.errf("gather port %s must be IN[w] with w in 1..%d", in.Local, workers)
		}
		if in.Peer != c.MPU+w {
			return c.errf("worker on IN[%d] sits on MPU %d, want MPU %d", w, in.Peer, c.MPU+w)
		}
	}
	apps.EmitLLMCoordinator(c.B, c.MPU, workers, vrfs)
	return nil
}

func emitLLMWorker(c *Ctx) error {
	if len(c.Ins) != 1 || len(c.Outs) != 1 {
		return c.errf("LLMWorker needs exactly one IN (from its coordinator) and one OUT (back to it)")
	}
	coord := c.Ins[0].Peer
	if c.Outs[0].Peer != coord {
		return c.errf("results must go back to the coordinator on MPU %d", coord)
	}
	wID := c.MPU - coord
	if wID < 1 {
		return c.errf("worker must sit after its coordinator (MPU coord+w)")
	}
	if i := c.Ins[0].Remote.Index; i >= 0 && i != wID {
		return c.errf("coordinator scatters this worker over OUT[%d] but it sits on MPU coord+%d", i, wID)
	}
	if i := c.Outs[0].Remote.Index; i >= 0 && i != wID {
		return c.errf("results gather into IN[%d] but this worker's staging column is %d", i, wID)
	}
	vrfs, err := c.intParam("vrfs", 2, 1, c.Spec.RFHsPerMPU)
	if err != nil {
		return err
	}
	apps.EmitLLMWorker(c.B, coord, wID, vrfs)
	return nil
}
