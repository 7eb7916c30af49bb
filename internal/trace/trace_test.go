package trace

import (
	"reflect"
	"runtime"
	"testing"

	"mpu/internal/micro"
	"mpu/internal/vrf"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Abort()
	r.Instr()
	r.Cycles(3)
	r.Lookup(1, 2)
	r.Exec(0, nil, 1, 0.5)
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
	two, one := vrf.CompileResolved(ops, 64), vrf.CompileResolved(ops[:1], 64)

	r.Instr()
	r.Lookup(7, len(ops))
	r.Exec(10, two, 4, 1.5)
	r.Instr()
	r.Lookup(9, 1)
	r.Exec(11, one, 2, 0.5)
	r.Instr()
	r.Mask(StepSetMaskReg, 3)
	r.Instr()
	r.Lookup(7, len(ops))
	r.Exec(10, two, 4, 1.5)

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
	// One step per instruction, each exec step holding the kernel it was
	// handed: adjacent instructions do not merge.
	want := []Step{
		{Kind: StepExec, PC: 10, Kern: two},
		{Kind: StepExec, PC: 11, Kern: one},
		{Kind: StepSetMaskReg, Arg: 3},
		{Kind: StepExec, PC: 10, Kern: two},
	}
	if !reflect.DeepEqual(tr.Steps, want) {
		t.Fatalf("Steps = %+v, want %+v", tr.Steps, want)
	}
	// The widest kernel sets the width: the COPY-only one has group bodies.
	if tr.Width() != 4 {
		t.Errorf("Width() = %d, want 4", tr.Width())
	}
}

// Recording costs one step per datapath instruction, whatever the
// expansion's length: a body that is recorded and never replayed (every
// one-round request on a pooled machine) must not copy its micro-ops.
func TestRecorderExecAllocatesPerInstruction(t *testing.T) {
	const instrs = 64
	record := func(kern *vrf.CompiledExec) func() {
		return func() {
			r := NewRecorder()
			for i := 0; i < instrs; i++ {
				r.Exec(i, kern, 1, 0)
			}
			if r.Finish(instrs) == nil {
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
	short := vrf.CompileResolved(make([]micro.ResolvedOp, 1), 256)
	long := vrf.CompileResolved(make([]micro.ResolvedOp, 4096), 256)
	if a, b := testing.AllocsPerRun(20, record(short)), testing.AllocsPerRun(20, record(long)); a != b {
		t.Errorf("allocations follow the expansion length: %v for 1 micro-op, %v for 4096", a, b)
	}
	// Copying the micro-ops would move instrs × 4096 × 12 B ≈ 3 MB here; a
	// step is the recorder, its two maps and a grown slice of instrs 24-byte
	// steps.
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
