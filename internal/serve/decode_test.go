package serve

import (
	"bytes"
	"encoding/base64"
	"net/http"
	"runtime"
	"testing"

	"mpu/internal/isa"
	"mpu/internal/machine"
)

// mulBinary is one ensemble of n MULs, the from-th to the (from+n-1)-th
// distinct register triple: every MUL is a decode-table entry of its own.
func mulBinary(from, n int) string {
	p := isa.Program{isa.Compute(0, 0)}
	for j := from; j < from+n; j++ {
		p = append(p, isa.Mul(j%32, j/32%32, 32+j%31))
	}
	p = append(p, isa.ComputeDone())
	return base64.StdEncoding.EncodeToString(isa.EncodeProgram(p))
}

// A binary whose decoded instructions hold more than the decode budget is
// refused with 422 when its run reaches the budget, and the server keeps
// serving: the next request answers exactly what a fresh server does.
func TestServeDecodeBudget422(t *testing.T) {
	defer machine.SetDecodeBudgets(8<<20, 8<<20)()
	next := Request{Workload: "relu", Backend: "racer", Elements: 128, Seed: 3}
	_, ts := newTestServer(t, Config{Pools: onePool})
	code, body, _ := postExecute(t, ts.URL, Request{Binary: mulBinary(0, 16), Backend: "racer"})
	if code != http.StatusUnprocessableEntity || !bytes.Contains(body, []byte("decode budget")) {
		t.Fatalf("16 distinct MULs under an 8 MiB budget: status %d: %s", code, body)
	}
	code, got, _ := postExecute(t, ts.URL, next)
	if code != http.StatusOK {
		t.Fatalf("the next request: status %d: %s", code, got)
	}
	_, fresh := newTestServer(t, Config{Pools: onePool})
	if code, want, _ := postExecute(t, fresh.URL, next); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("after the 422 the server answers\n%s\na fresh server answers (%d)\n%s", got, code, want)
	}
}

// A stream of binaries, each of distinct MULs never decoded before, cannot
// grow the process: after GC the live heap stays within the decode budget
// plus a slack of one more budget (what the pool machine's last program
// pins through its decode slice) and 16 MiB for the server and the test.
func TestServeDecodeHeapBounded(t *testing.T) {
	const budget = 8 << 20
	defer machine.SetDecodeBudgets(budget, budget)()
	_, ts := newTestServer(t, Config{Pools: onePool})
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := live()
	flushes := machine.DecodeTableStats().Flushes
	var most int64
	for i := 0; i < 12; i++ {
		code, body, _ := postExecute(t, ts.URL, Request{Binary: mulBinary(1000+3*i, 3), Backend: "racer"})
		if code != http.StatusOK {
			t.Fatalf("binary %d: status %d: %s", i, code, body)
		}
		most = max(most, int64(live())-int64(base))
		if most > 2*budget+16<<20 {
			t.Fatalf("after binary %d the live heap grew by %.1f MiB, past %d MiB", i, float64(most)/(1<<20), (2*budget+16<<20)>>20)
		}
	}
	t.Logf("live heap grew by at most %.1f MiB over 36 distinct MULs", float64(most)/(1<<20))
	if st := machine.DecodeTableStats(); st.Flushes == flushes || st.Bytes > budget {
		t.Errorf("decode table after the stream: %+v (flushes before %d); want flushes and at most %d bytes", st, flushes, budget)
	}
}
