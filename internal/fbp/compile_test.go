package fbp_test

import (
	"errors"
	"strings"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/fbp"
	"mpu/internal/machine"
)

func racer(t *testing.T) *backends.Spec {
	t.Helper()
	spec, err := backends.ByName("racer")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCompileETL compiles the shipped ETL example and streams one record
// through it end to end, checking the resident Reduce accumulator.
func TestCompileETL(t *testing.T) {
	spec := racer(t)
	c := compileExample(t, spec, "etl")
	if c.MPUs != 6 {
		t.Fatalf("etl places %d MPUs, want 6", c.MPUs)
	}
	if !c.Report.Ok() {
		t.Fatalf("compiled pipeline carries error findings:\n%s", c.Report)
	}
	m, err := machine.New(machine.Config{Spec: spec, Mode: machine.ModeMPU, NumMPUs: c.MPUs})
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range c.Programs {
		if err := m.LoadProgram(id, p); err != nil {
			t.Fatal(err)
		}
	}
	lanes := spec.Lanes
	// Streaming layout: the record's register file v sits at (rfh v, vrf 0);
	// src is node 0 = MPU 0, total is node 5 = MPU 5.
	a := controlpath.VRFAddr{RFH: 0, VRF: 0}
	r0 := make([]uint64, lanes)
	r1 := make([]uint64, lanes)
	for i := range r0 {
		r0[i] = uint64(i)
		r1[i] = uint64(2 * i)
	}
	if err := m.WriteVector(0, a, 0, r0); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteVector(0, a, 1, r1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadVector(5, a, 48) // Reduce accumulator on node total
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		sum := uint64(3 * i)           // vecadd lane result
		mix := uint64(i) ^ uint64(2*i) // vecxor lane result
		want := sum
		if mix > want {
			want = mix // Merge op=max
		}
		// Filter min=1 zeroes only lanes below 1; Reduce adds into an
		// accumulator that starts at zero.
		if want < 1 {
			want = 0
		}
		if got[i] != want {
			t.Fatalf("lane %d: accumulator %d, want %d", i, got[i], want)
		}
	}
}

func TestCompileTypedErrors(t *testing.T) {
	spec := racer(t)
	compile := func(src string) error {
		_, err := fbp.CompileSource(src, fbp.Options{Spec: spec})
		return err
	}
	cases := []struct {
		name, src, want string
	}{
		{"unknown component", "a(Nope) OUT -> IN b(Map)", "unknown component"},
		{"map without kernel", "a(Map) OUT -> IN b(Map)\n'vecadd' -> KERNEL a", "requires a kernel"},
		{"unknown kernel", "a(Map) OUT -> IN b(Map)\n'vecadd' -> KERNEL a\n'zzz' -> KERNEL b", "unknown kernel"},
		{"unknown param", "a(Map) OUT -> IN b(Map)\n'vecadd' -> KERNEL a\n'vecadd' -> KERNEL b\n'1' -> BOGUS a", "unknown parameter"},
		{"backward edge", "a(Split) OUT -> IN b(Split)\nb OUT -> IN a", "must come from earlier nodes"},
		{"odd ring", "a(EDStep) OUT -> IN b(EDStep) OUT -> IN c(EDStep)\nc OUT -> IN a", "must be even"},
		{"llm bad placement", "c(LLMCoord) OUT[2] -> IN w1(LLMWorker)\nc OUT[1] -> IN w2(LLMWorker)\nw1 OUT -> IN[2] c\nw2 OUT -> IN[1] c", "staging column"},
		{"ring vrfs mismatch", "ed0(EDStep) OUT -> IN ed1(EDStep)\ned1 OUT -> IN ed0\n'8' -> VRFS ed0\n'1' -> VRFS ed1", "node ed0: vrfs 8 here but 1 on ed1"},
		{"group vrfs mismatch", "c(LLMCoord) OUT[1] -> IN w(LLMWorker)\nw OUT -> IN[1] c\n'2' -> VRFS c\n'1' -> VRFS w", "node c: vrfs 2 here but 1 on w"},
		{"merge collision", "a(Split) OUT -> IN s(Split)\na OUT[1] -> IN f(Merge)\ns OUT -> IN f\nf OUT -> IN z(Filter)", "distinct IN[i]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := compile(c.src)
			var ce *fbp.CompileError
			if !errors.As(err, &ce) {
				t.Fatalf("got %v, want *CompileError", err)
			}
			if !strings.Contains(ce.Error(), c.want) {
				t.Fatalf("error %q missing %q", ce.Error(), c.want)
			}
		})
	}
}

// TestCompileVRFsDefault: a vrfs bound to the component's default agrees
// with a node that leaves it unbound.
func TestCompileVRFsDefault(t *testing.T) {
	for _, src := range []string{
		"ed0(EDStep) OUT -> IN ed1(EDStep)\ned1 OUT -> IN ed0\n'4' -> VRFS ed1",
		"c(LLMCoord) OUT[1] -> IN w(LLMWorker)\nw OUT -> IN[1] c\n'2' -> VRFS w",
	} {
		if _, err := fbp.CompileSource(src, fbp.Options{Spec: racer(t)}); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// TestCompileGeometryOverflow pins the LintError path for graphs larger
// than the admitted machine: a findings report, not a grammar error.
func TestCompileGeometryOverflow(t *testing.T) {
	spec := racer(t)
	var sb strings.Builder
	sb.WriteString("n0(Split) OUT -> IN n1(Filter)\n")
	for i := 1; i < 6; i++ {
		sb.WriteString("n")
		sb.WriteString(string(rune('0' + i)))
		sb.WriteString(" OUT -> IN n")
		sb.WriteString(string(rune('0' + i + 1)))
		sb.WriteString("(Filter)\n")
	}
	_, err := fbp.CompileSource(sb.String(), fbp.Options{Spec: spec, MaxMPUs: 4})
	var le *fbp.LintError
	if !errors.As(err, &le) {
		t.Fatalf("got %v, want *LintError", err)
	}
	if len(le.Report.Errs()) != 1 || le.Report.Errs()[0].Check != "pipeline-geometry" {
		t.Fatalf("report = %s", le.Report)
	}
}

// TestCompileCommRejection: programs that build but whose composition
// deadlocks (mis-phased ring steps) surface as LintError with the commlint
// counterexample.
func TestCompileCommRejection(t *testing.T) {
	spec := racer(t)
	src := `
a(EDStep) OUT -> IN b(EDStep)
b OUT -> IN a
'1' -> STEPS a
'2' -> STEPS b
`
	_, err := fbp.CompileSource(src, fbp.Options{Spec: spec})
	var le *fbp.LintError
	if !errors.As(err, &le) {
		t.Fatalf("got %v, want *LintError", err)
	}
	if le.Report.Ok() {
		t.Fatalf("lint error with a clean report: %s", le.Report)
	}
}
