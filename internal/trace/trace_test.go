package trace

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mpu/internal/micro"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Abort()
	r.Instr()
	r.Cycles(3)
	r.Lookup(1, 2)
	r.Exec(nil, 1, 0.5)
	r.Mask(StepUnmask, 0)
	r.Offload(10, 1)
	r.Push()
	r.Pop()
	if r.Aborted() {
		t.Fatal("nil recorder reports aborted")
	}
}

func TestRecorderCompilesBody(t *testing.T) {
	r := NewRecorder()
	ops := []micro.ResolvedOp{{Kind: micro.COPY}, {Kind: micro.NOT}}

	r.Instr()
	r.Lookup(7, len(ops))
	r.Exec(ops, 4, 1.5)
	r.Instr()
	r.Lookup(9, 1)
	r.Exec(ops[:1], 2, 0.5)
	r.Instr()
	r.Mask(StepSetMaskReg, 3)
	r.Instr()
	r.Lookup(7, len(ops))
	r.Exec(ops, 4, 1.5)

	tr := r.Finish(42)
	if tr == nil {
		t.Fatal("Finish returned nil for a well-formed recording")
	}
	if tr.EndPC != 42 {
		t.Errorf("EndPC = %d, want 42", tr.EndPC)
	}
	if tr.Instructions != 4 {
		t.Errorf("Instructions = %d, want 4", tr.Instructions)
	}
	if tr.Cycles != 10 || tr.ComputeCycles != 10 {
		t.Errorf("Cycles/ComputeCycles = %d/%d, want 10/10", tr.Cycles, tr.ComputeCycles)
	}
	if tr.MicroOpsPerVRF != 5 || tr.Issue != 5 {
		t.Errorf("MicroOpsPerVRF/Issue = %d/%d, want 5/5", tr.MicroOpsPerVRF, tr.Issue)
	}
	if tr.EnergyPerVRF != 1.5+0.5+1.5 {
		t.Errorf("EnergyPerVRF = %v, want 3.5", tr.EnergyPerVRF)
	}
	// Two distinct opcodes, three lookups, opcode 9 touched before 7's
	// last occurrence.
	if tr.NumLookups != 3 || len(tr.Lookups) != 2 {
		t.Errorf("NumLookups/Lookups = %d/%d, want 3/2", tr.NumLookups, len(tr.Lookups))
	}
	if want := []uint8{9, 7}; !reflect.DeepEqual(tr.TouchOrder, want) {
		t.Errorf("TouchOrder = %v, want %v", tr.TouchOrder, want)
	}
	// Adjacent Execs merge; the mask step splits them.
	if len(tr.Steps) != 3 || tr.Steps[0].Kind != StepExec || tr.Steps[1].Kind != StepSetMaskReg || tr.Steps[2].Kind != StepExec {
		t.Fatalf("Steps = %+v, want [exec mask exec]", tr.Steps)
	}
	tr.Flatten()
	if len(tr.Steps[0].Ops) != 3 || len(tr.Steps[2].Ops) != 2 {
		t.Errorf("merged op counts = %d/%d, want 3/2", len(tr.Steps[0].Ops), len(tr.Steps[2].Ops))
	}
	if tr.Steps[1].Arg != 3 {
		t.Errorf("mask step arg = %d, want 3", tr.Steps[1].Arg)
	}
}

// The recorder keeps the process-wide expansion it is handed by reference, so
// neither recording a merge nor flattening may write into it — spare capacity
// included, which an in-place append would fill.
func TestRecorderLeavesSharedExpansionIntact(t *testing.T) {
	r := NewRecorder()
	shared := append(make([]micro.ResolvedOp, 0, 8), micro.ResolvedOp{Kind: micro.COPY, Dst: 3})
	before := append([]micro.ResolvedOp(nil), shared[:cap(shared)]...)
	r.Exec(shared, 1, 0)
	r.Exec([]micro.ResolvedOp{{Kind: micro.NOT}}, 1, 0)
	r.Exec(shared, 1, 0)
	tr := r.Finish(0)
	tr.Flatten()
	tr.Steps[0].Ops[0].Dst++ // the flat stream is the trace's own
	if !reflect.DeepEqual(shared[:cap(shared)], before) {
		t.Fatalf("shared expansion changed:\nbefore %v\nafter  %v", before, shared[:cap(shared)])
	}
}

// Flatten yields exactly the stream the copying recorder used to build: each
// exec step is the concatenation, in program order, of the expansions merged
// into it, at exact size, and a second Flatten changes nothing.
func TestFlattenMatchesCopyingRecorder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	expansions := make([][]micro.ResolvedOp, 6)
	for i := range expansions {
		expansions[i] = make([]micro.ResolvedOp, r.Intn(40)) // some empty
		for j := range expansions[i] {
			expansions[i][j] = micro.ResolvedOp{Kind: micro.Kind(r.Intn(8)), Dst: micro.Slot(r.Intn(1 << 12)), A: micro.Slot(i), B: micro.Slot(j)}
		}
	}
	rec := NewRecorder()
	var want []Step // what append-copying every expansion produced
	for i := 0; i < 200; i++ {
		if r.Intn(7) == 0 {
			rec.Mask(StepGetMask, uint8(i))
			want = append(want, Step{Kind: StepGetMask, Arg: uint8(i)})
			continue
		}
		rops := expansions[r.Intn(len(expansions))]
		rec.Exec(rops, 1, 0)
		if n := len(want); n == 0 || want[n-1].Kind != StepExec {
			want = append(want, Step{Kind: StepExec})
		}
		want[len(want)-1].Ops = append(want[len(want)-1].Ops, rops...)
	}
	tr := rec.Finish(0)
	for pass := 0; pass < 2; pass++ {
		tr.Flatten()
		if !stepsEqual(tr.Steps, want) {
			t.Fatalf("pass %d: flattened steps differ from the copied stream", pass)
		}
		for i := range tr.Steps {
			if s := &tr.Steps[i]; cap(s.Ops) != len(s.Ops) {
				t.Fatalf("pass %d: step %d: cap %d for %d micro-ops", pass, i, cap(s.Ops), len(s.Ops))
			}
		}
	}
	var ops uint64
	for i := range tr.Steps {
		ops += uint64(len(tr.Steps[i].Ops))
	}
	if ops != tr.MicroOpsPerVRF {
		t.Fatalf("flat stream holds %d micro-ops, trace charges %d", ops, tr.MicroOpsPerVRF)
	}
}

// Recording costs one slice header per datapath instruction, whatever the
// expansion's length: a body that is recorded and never replayed (every
// one-round request on a pooled machine) must not copy its micro-ops.
func TestRecorderExecAllocatesPerInstruction(t *testing.T) {
	const instrs = 64
	record := func(rops []micro.ResolvedOp) func() {
		return func() {
			r := NewRecorder()
			for i := 0; i < instrs; i++ {
				r.Exec(rops, 1, 0)
			}
			if r.Finish(0) == nil {
				t.Fatal("recording aborted")
			}
		}
	}
	bytesPerRun := func(f func()) uint64 {
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	short, long := make([]micro.ResolvedOp, 1), make([]micro.ResolvedOp, 4096)
	if a, b := testing.AllocsPerRun(20, record(short)), testing.AllocsPerRun(20, record(long)); a != b {
		t.Errorf("allocations follow the expansion length: %v for 1 micro-op, %v for 4096", a, b)
	}
	// The copying recorder moved instrs × 4096 × 12 B ≈ 3 MB here; by
	// reference it is the recorder, its two maps and a grown slice of
	// instrs 24-byte headers.
	if got := bytesPerRun(record(long)); got > 8<<10 {
		t.Errorf("recording %d instructions of 4096 micro-ops allocated %d bytes, want at most 8 KiB", instrs, got)
	}
}

func TestRecorderAborts(t *testing.T) {
	t.Run("explicit", func(t *testing.T) {
		r := NewRecorder()
		r.Abort()
		if !r.Aborted() || r.Finish(0) != nil {
			t.Fatal("aborted recording survived Finish")
		}
	})
	t.Run("pop-below-entry", func(t *testing.T) {
		r := NewRecorder()
		r.Pop()
		if r.Finish(0) != nil {
			t.Fatal("recording that popped a caller frame survived Finish")
		}
	})
	t.Run("unbalanced-push", func(t *testing.T) {
		r := NewRecorder()
		r.Push()
		if r.Finish(0) != nil {
			t.Fatal("recording that leaked a frame survived Finish")
		}
	})
	t.Run("expansion-size-conflict", func(t *testing.T) {
		r := NewRecorder()
		r.Lookup(7, 2)
		r.Lookup(7, 3)
		if r.Finish(0) != nil {
			t.Fatal("opcode at two expansion sizes survived Finish")
		}
	})
	t.Run("balanced-call", func(t *testing.T) {
		r := NewRecorder()
		r.Push()
		r.Pop()
		if r.Finish(0) == nil {
			t.Fatal("balanced push/pop aborted the recording")
		}
	})
}

func TestCacheNegativeEntries(t *testing.T) {
	c := NewCache()
	k := Key{BodyStart: 3, BodyLen: 5}
	if _, ok := c.Lookup(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Install(k, nil)
	tr, ok := c.Lookup(k)
	if !ok || tr != nil {
		t.Fatalf("negative entry Lookup = (%v, %v), want (nil, true)", tr, ok)
	}
	c.Install(k, &Trace{EndPC: 9})
	if tr, _ := c.Lookup(k); tr == nil || tr.EndPC != 9 {
		t.Fatal("positive entry did not replace negative entry")
	}
	c.Reset()
	if _, ok := c.Lookup(k); ok {
		t.Fatal("Reset left an entry behind")
	}
}

// The classification verdict is computed at most once per key: ineligible
// bodies must not re-run the CFG walk on every activation.
func TestCacheMemoizesClassification(t *testing.T) {
	c := NewCache()
	k := Key{BodyStart: 1, BodyLen: 2}
	calls := 0
	classify := func() bool { calls++; return false }
	for i := 0; i < 5; i++ {
		if c.Eligible(k, classify) {
			t.Fatal("classify returned false but Eligible reported true")
		}
	}
	if calls != 1 {
		t.Fatalf("classify ran %d times, want 1", calls)
	}
	// A different key classifies independently.
	k2 := Key{BodyStart: 9, BodyLen: 2}
	ok := c.Eligible(k2, func() bool { return true })
	if !ok {
		t.Fatal("second key inherited the first key's verdict")
	}
	// Eligibility and recording outcome are independent: installing a
	// trace must not disturb the memoized verdict.
	c.Install(k2, &Trace{EndPC: 4})
	if !c.Eligible(k2, func() bool { t.Fatal("verdict recomputed"); return false }) {
		t.Fatal("verdict lost after Install")
	}
	// Reset clears verdicts along with traces (program reload).
	c.Reset()
	if c.Eligible(k, func() bool { calls++; return true }) != true || calls != 2 {
		t.Fatal("Reset did not clear the memoized verdict")
	}
}
