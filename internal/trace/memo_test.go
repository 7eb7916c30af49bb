package trace

import "testing"

// TestProgMemoReuse pins the memo contract: structurally equal step streams
// share one compiled program (pointer-identical), while a different lane
// geometry or a different stream compiles separately — ragged lane counts
// included, since no geometry declines.
func TestProgMemoReuse(t *testing.T) {
	pm := NewProgMemo()

	a, b := jitBody(), jitBody() // equal content, distinct backing arrays
	pa := pm.Compile(a, 64)
	if pa == nil {
		t.Fatal("CompileJIT declined a straight-line body at 64 lanes")
	}
	if pb := pm.Compile(b, 64); pb != pa {
		t.Fatalf("structurally equal streams compiled to distinct programs: %p vs %p", pa, pb)
	}

	wide := pm.Compile(a, 256)
	if wide == nil {
		t.Fatal("CompileJIT declined the same body at 256 lanes")
	}
	if wide == pa {
		t.Fatal("lane geometries 64 and 256 shared one compiled program")
	}

	c := jitBody()
	c.Steps[0].Ops[0].Dst++ // same shape, different operand slot
	if pc := pm.Compile(c, 64); pc == pa {
		t.Fatal("distinct streams aliased one compiled program")
	}

	ragged := pm.Compile(a, 48)
	if ragged == nil || ragged == pa {
		t.Fatalf("48 lanes: program %p, want a distinct non-nil compilation", ragged)
	}
	if again := pm.Compile(b, 48); again != ragged {
		t.Fatalf("48-lane compilation not memoized: %p vs %p", ragged, again)
	}
}
