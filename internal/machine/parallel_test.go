package machine_test

// The deadlock tests pin the phase-based scheduler's other contract (its
// parity is the matrix's workers4 row): a stuck machine raises the same
// diagnostic at any worker count.

import (
	"fmt"
	"strings"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/machine"
)

// sendRecvProg builds a program that SENDs one register to dst and/or RECVs
// from src (−1 skips the phase).
func sendRecvProg(t *testing.T, dst, src int) isa.Program {
	t.Helper()
	var sb strings.Builder
	if dst >= 0 {
		fmt.Fprintf(&sb, "SEND mpu%d\nMOVE rfh0 rfh0\nMEMCPY vrf0 r0 vrf0 r0\nMOVE_DONE\nSEND_DONE\n", dst)
	}
	if src >= 0 {
		fmt.Fprintf(&sb, "RECV mpu%d\n", src)
	}
	p, err := isa.Assemble(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParallelDeadlockDetection(t *testing.T) {
	type comm struct{ dst, src int } // one MPU's program shape
	cases := []struct {
		name string
		mpus []comm
		want []string // who-waits-on-whom lines the diagnostic must carry
	}{
		// Every MPU sends to its ring successor before receiving: a cyclic
		// wait no rendezvous can break.
		{"cyclic send chain", []comm{{dst: 1, src: 2}, {dst: 2, src: 0}, {dst: 0, src: 1}},
			[]string{
				"mpu0: SEND to mpu1 at pc 0 (waits on mpu1)",
				"mpu1: SEND to mpu2 at pc 0 (waits on mpu2)",
				"mpu2: SEND to mpu0 at pc 0 (waits on mpu0)",
			}},
		// A core that sends to itself can never reach its own RECV.
		{"self send", []comm{{dst: 0, src: 0}, {dst: -1, src: -1}},
			[]string{"mpu0: SEND to mpu0 at pc 0 (waits on mpu0)"}},
		// Sender and receiver each name a third, finished core.
		{"mismatched pair", []comm{{dst: 1, src: -1}, {dst: -1, src: 2}, {dst: -1, src: -1}},
			[]string{
				"mpu0: SEND to mpu1 at pc 0 (waits on mpu1)",
				"mpu1: RECV from mpu2 at pc 0 (waits on mpu2)",
			}},
		// A receiver whose named source never sends.
		{"recv without sender", []comm{{dst: -1, src: 1}, {dst: -1, src: -1}},
			[]string{"mpu0: RECV from mpu1 at pc 0 (waits on mpu1)"}},
	}
	for _, c := range cases {
		var errs []string
		for _, workers := range []int{1, 4} {
			m, err := machine.New(machine.Config{Spec: backends.RACER(), Mode: machine.ModeMPU,
				NumMPUs: len(c.mpus), Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for id, cm := range c.mpus {
				if cm.dst < 0 && cm.src < 0 {
					continue // empty program: core finishes immediately
				}
				if err := m.LoadProgram(id, sendRecvProg(t, cm.dst, cm.src)); err != nil {
					t.Fatal(err)
				}
			}
			_, err = m.Run()
			if err == nil || !strings.Contains(err.Error(), "deadlock") {
				t.Fatalf("%s (workers %d): expected deadlock error, got %v", c.name, workers, err)
			}
			for _, line := range c.want {
				if !strings.Contains(err.Error(), line) {
					t.Errorf("%s (workers %d): diagnostic missing waiter %q:\n%s", c.name, workers, line, err)
				}
			}
			errs = append(errs, err.Error())
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: diagnostic differs between worker counts:\nseq: %s\npar: %s", c.name, errs[0], errs[1])
		}
	}
}
