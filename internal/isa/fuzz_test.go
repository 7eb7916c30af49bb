package isa_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/lint"
	"mpu/internal/machine"
)

// TestAssembleNeverPanics feeds adversarial text to the assembler: it may
// reject, but must never panic.
func TestAssembleNeverPanics(t *testing.T) {
	pieces := []string{
		"ADD", "COMPUTE", "JUMP", "MEMCPY", "SETMASK", "r0", "r63", "r999",
		"rfh0", "vrf77", "mpu1", "cond", ":", "::", "loop:", "//x", ";",
		"\n", "\t", ",", "-1", "0x", "9999999999999999999999", "_", ".",
		"label", "JUMP_COND", "COMPUTE_DONE", "MOVE_DONE", "", " ",
	}
	rng := rand.New(rand.NewSource(77))
	f := func() bool {
		var sb strings.Builder
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
			if rng.Intn(3) == 0 {
				sb.WriteByte(' ')
			}
			if rng.Intn(4) == 0 {
				sb.WriteByte('\n')
			}
		}
		_, _ = isa.Assemble(sb.String()) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNeverPanics decodes every possible opcode byte with random
// operand bits.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for i := 0; i < 10000; i++ {
		_, _ = isa.Decode(rng.Uint32())
	}
}

// TestDecodeProgramGarbage parses random byte blobs.
func TestDecodeProgramGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 200; i++ {
		buf := make([]byte, rng.Intn(64)*4)
		rng.Read(buf)
		if p, err := isa.DecodeProgram(buf); err == nil {
			// Whatever decodes must re-encode identically.
			again, err2 := isa.DecodeProgram(isa.EncodeProgram(p))
			if err2 != nil || len(again) != len(p) {
				t.Fatal("decode/encode not stable")
			}
		}
	}
}

// --- Lint soundness oracle -------------------------------------------------
//
// The linter promises: a program with no Error findings cannot trip the
// machine's ensemble-structure or capacity guards (machine.ErrEnsembleFault,
// machine.ErrCapacityFault). The fuzz target below holds it to that promise
// with randomly shaped instruction streams. Config-dependent failures —
// deadlock, runaway-loop step limits, return-stack overflow from deep
// recursion, SEND/RECV to an MPU outside the instantiated mesh — are allowed:
// they depend on data and machine sizing, which the linter does not model.

// programFromBytes shapes arbitrary fuzz bytes into a syntactically valid
// program: 5 bytes per instruction (opcode + operands), operands reduced into
// their encodable ranges and jump targets wrapped into the program. Encoding
// validity is the assembler's job; everything beyond it (structure, context,
// capacity) is exactly what the linter must judge.
func programFromBytes(data []byte) isa.Program {
	const maxInstrs = 200
	var p isa.Program
	for len(data) >= 5 && len(p) < maxInstrs {
		op := isa.Op(int(data[0]) % isa.NumOps)
		b1, b2, b3, b4 := data[1], data[2], data[3], data[4]
		data = data[5:]
		var in isa.Instr
		switch op {
		case isa.COMPUTE:
			in = isa.Compute(int(b1)%isa.MaxRFHsPerMPU, int(b2)%isa.MaxVRFsPerRFH)
		case isa.MOVE:
			in = isa.Move(int(b1)%isa.MaxRFHsPerMPU, int(b2)%isa.MaxRFHsPerMPU)
		case isa.MEMCPY:
			in = isa.Memcpy(int(b1)%isa.MaxVRFsPerRFH, int(b2)%isa.NumRegs,
				int(b3)%isa.MaxVRFsPerRFH, int(b4)%isa.NumRegs)
		case isa.SEND, isa.RECV:
			in = isa.Instr{Op: op, Imm: int32(b1 % 2)}
		case isa.JUMP, isa.JUMPCOND:
			in = isa.Instr{Op: op, Imm: int32(b1)} // wrapped into range below
		case isa.SETMASK:
			in = isa.SetMask(int(b1) % isa.NumRegs)
		default:
			in = isa.Instr{Op: op,
				A: uint8(int(b1) % isa.NumRegs),
				B: uint8(int(b2) % isa.NumRegs),
				C: uint8(int(b3) % isa.NumRegs)}
		}
		p = append(p, in)
	}
	for i := range p {
		if p[i].Op == isa.JUMP || p[i].Op == isa.JUMPCOND {
			p[i].Imm = int32(int(p[i].Imm) % len(p))
		}
	}
	return p
}

// soundnessViolation reports a runtime error the linter promised away.
func soundnessViolation(err error) bool {
	return errors.Is(err, machine.ErrEnsembleFault) || errors.Is(err, machine.ErrCapacityFault)
}

// checkLintSoundness lints p against each back end; when the linter passes
// the program, it must execute there without an ensemble or capacity fault.
func checkLintSoundness(t *testing.T, data []byte) {
	t.Helper()
	p := programFromBytes(data)
	for _, spec := range []*backends.Spec{backends.RACER(), backends.MIMDRAM(), backends.DualityCache()} {
		var r *lint.Report
		func() {
			defer func() {
				if e := recover(); e != nil {
					t.Fatalf("lint panicked on %s: %v\nprogram:\n%s", spec.Name, e, isa.Disassemble(p))
				}
			}()
			r = lint.Lint(p, lint.Options{Spec: spec})
		}()
		if !r.Ok() {
			continue
		}
		mpus := 2
		if spec.MPUs < 2 {
			mpus = 1
		}
		m, err := machine.New(machine.Config{Spec: spec, NumMPUs: mpus, MaxSteps: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadAll(p); err != nil {
			t.Fatalf("lint-clean program rejected at load on %s: %v\nprogram:\n%s",
				spec.Name, err, isa.Disassemble(p))
		}
		if _, err := m.Run(); err != nil && soundnessViolation(err) {
			t.Fatalf("lint passed but %s faulted: %v\nprogram:\n%s",
				spec.Name, err, isa.Disassemble(p))
		}
	}
}

// chunk encodes one fuzz-input instruction for the seed corpus.
func chunk(op isa.Op, operands ...byte) []byte {
	c := make([]byte, 5)
	c[0] = byte(op)
	copy(c[1:], operands)
	return c
}

func seedCorpus() [][]byte {
	cat := func(chunks ...[]byte) []byte {
		var out []byte
		for _, c := range chunks {
			out = append(out, c...)
		}
		return out
	}
	return [][]byte{
		// A balanced compute ensemble.
		cat(chunk(isa.COMPUTE, 0, 0), chunk(isa.ADD, 0, 1, 2), chunk(isa.COMPUTEDONE)),
		// A conditional loop with a mask.
		cat(chunk(isa.COMPUTE, 0, 0), chunk(isa.CMPGT, 0, 1),
			chunk(isa.SETMASK, isa.RegCond), chunk(isa.SUB, 0, 1, 0),
			chunk(isa.JUMPCOND, 1), chunk(isa.UNMASK), chunk(isa.COMPUTEDONE)),
		// A transfer ensemble and a send block.
		cat(chunk(isa.MOVE, 0, 1), chunk(isa.MEMCPY, 0, 2, 3, 5), chunk(isa.MOVEDONE),
			chunk(isa.SEND, 1), chunk(isa.MOVE, 0, 0), chunk(isa.MEMCPY, 0, 5, 0, 5),
			chunk(isa.MOVEDONE), chunk(isa.SENDDONE)),
		// A subroutine layout in the ezpim style.
		cat(chunk(isa.JUMP, 3), chunk(isa.ADD, 0, 1, 2), chunk(isa.RETURN),
			chunk(isa.COMPUTE, 0, 0), chunk(isa.JUMP, 1), chunk(isa.COMPUTEDONE)),
		// Defective programs: the linter must reject (or the machine must
		// only fail in allowed, config-dependent ways).
		cat(chunk(isa.COMPUTE, 0, 0), chunk(isa.ADD, 0, 1, 2)), // no footer
		cat(chunk(isa.RETURN)),                                 // empty RAS
		cat(chunk(isa.ADD, 0, 1, 2)),                           // datapath at top
		cat(chunk(isa.SEND, 1), chunk(isa.SENDDONE)),           // no MOVE header
		cat(chunk(isa.COMPUTE, 0, 0), chunk(isa.RECV, 0), chunk(isa.COMPUTEDONE)),
		// A top-entered subroutine that opens an ensemble and returns inside
		// its body: the caller's fall-through resumes in body context (the
		// MPU_SYNC at 1 faults there), so the linter must reject it.
		cat(chunk(isa.JUMP, 3), chunk(isa.MPUSYNC), chunk(isa.JUMP, 2),
			chunk(isa.COMPUTE, 0, 0), chunk(isa.ADD, 0, 1, 2),
			chunk(isa.RETURN), chunk(isa.COMPUTEDONE)),
	}
}

// FuzzLintSoundness is the executable form of the linter's soundness
// guarantee. Run with `go test -fuzz=FuzzLintSoundness ./internal/isa`.
func FuzzLintSoundness(f *testing.F) {
	for _, s := range seedCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLintSoundness(t, data)
	})
}

// TestLintSoundnessRandom drives the same oracle from a deterministic PRNG
// so plain `go test` exercises it without the fuzz engine.
func TestLintSoundnessRandom(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 50
	}
	rng := rand.New(rand.NewSource(80))
	for i := 0; i < n; i++ {
		buf := make([]byte, 5*(1+rng.Intn(40)))
		rng.Read(buf)
		checkLintSoundness(t, buf)
	}
	for _, s := range seedCorpus() {
		checkLintSoundness(t, s)
	}
}
