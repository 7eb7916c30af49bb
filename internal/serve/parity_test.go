package serve

import (
	"bytes"
	"encoding/base64"
	"net/http"
	"sync"
	"testing"
	"time"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// TestServeParityColdWarmBatchedConcurrent is the PR's acceptance test: the
// same request returns byte-identical machine.Stats JSON whether it is
// served cold (first request on a fresh pool), warm (a recycled machine),
// batched (coalesced with identical requests), or under 8 concurrent
// clients. It runs under -race in CI (make race-short).
func TestServeParityColdWarmBatchedConcurrent(t *testing.T) {
	req := Request{Workload: "gcd", Backend: "racer", Elements: 512, Seed: 11, Check: true}

	statsOf := func(t *testing.T, body []byte) []byte {
		t.Helper()
		return []byte(decodeResponse(t, body).Stats)
	}

	// Cold + warm: a single-machine pool, so the second request is
	// guaranteed to reuse (and Reset) the machine that served the first.
	_, ts := newTestServer(t, Config{
		Pools: []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
	})
	code, body, _ := postExecute(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("cold: %d %s", code, body)
	}
	cold := statsOf(t, body)

	// Interleave a different program so the warm machine's architectural
	// state is thoroughly dirty before the repeat.
	if code, body, _ := postExecute(t, ts.URL, Request{
		Workload: "relu", Backend: "racer", Elements: 256, Seed: 3,
	}); code != http.StatusOK {
		t.Fatalf("interleave: %d %s", code, body)
	}
	code, body, _ = postExecute(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("warm: %d %s", code, body)
	}
	if warm := statsOf(t, body); !bytes.Equal(cold, warm) {
		t.Fatalf("warm stats diverge from cold:\ncold: %s\nwarm: %s", cold, warm)
	}

	// Batched: the first arrival is held long enough before its run that the
	// concurrent identical requests join it in flight — one SPMD run.
	_, tsBatch := newTestServer(t, Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		DebugDelay: 150 * time.Millisecond,
	})
	const nBatch = 4
	var wg sync.WaitGroup
	batched := make([][]byte, nBatch)
	sizes := make([]int, nBatch)
	for i := 0; i < nBatch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _ := postExecute(t, tsBatch.URL, req)
			if code != http.StatusOK {
				t.Errorf("batched: %d %s", code, body)
				return
			}
			r := decodeResponse(t, body)
			batched[i] = []byte(r.Stats)
			sizes[i] = r.BatchSize
		}(i)
	}
	wg.Wait()
	for i, st := range batched {
		if sizes[i] <= 1 {
			t.Errorf("request %d was not coalesced (batch_size=%d)", i, sizes[i])
		}
		if !bytes.Equal(cold, st) {
			t.Fatalf("batched stats diverge from cold:\ncold:    %s\nbatched: %s", cold, st)
		}
	}

	// Concurrent: 8 clients racing for a 2-machine pool. Whether one rides
	// on a twin that is still in flight or runs on its own is up to timing;
	// the stats must not tell.
	_, tsConc := newTestServer(t, Config{
		Pools: []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 2}},
	})
	const nConc = 8
	conc := make([][]byte, nConc)
	for i := 0; i < nConc; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _ := postExecute(t, tsConc.URL, req)
			if code != http.StatusOK {
				t.Errorf("concurrent: %d %s", code, body)
				return
			}
			conc[i] = statsOf(t, body)
		}(i)
	}
	wg.Wait()
	for i, st := range conc {
		if !bytes.Equal(cold, st) {
			t.Fatalf("concurrent client %d stats diverge from cold:\ncold: %s\ngot:  %s", i, cold, st)
		}
	}
}

// TestServePoolHammer drives one warm pool hard under the race detector:
// many concurrent distinct requests (seeds differ, so nothing coalesces)
// across a pool smaller than the client count, each response checked
// against a fresh single-machine reference run. Any sharing of per-core
// caches between pool entries shows up either as a -race report or as a
// stats mismatch.
func TestServePoolHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pools:      []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 4}},
		QueueDepth: 64,
	})

	kernels := []string{"vecadd", "gcd", "relu", "vecxor"}
	const perKernel = 8 // 32 concurrent requests over 4 machines

	// Fresh-machine reference stats per (kernel, seed).
	type key struct {
		kernel string
		seed   int64
	}
	want := map[key][]byte{}
	for _, name := range kernels {
		for s := int64(0); s < perKernel; s++ {
			k := workloads.ByName(name)
			res, err := workloads.Run(k, workloads.RunConfig{
				Spec: poolSpecOf(t, ts.URL), Mode: machine.ModeMPU,
				TotalElements: 128, Seed: s, Check: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			b, err := res.Stats.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			want[key{name, s}] = b
		}
	}

	var wg sync.WaitGroup
	for _, name := range kernels {
		for s := int64(0); s < perKernel; s++ {
			wg.Add(1)
			go func(name string, seed int64) {
				defer wg.Done()
				code, body, _ := postExecute(t, ts.URL, Request{
					Workload: name, Backend: "racer", Elements: 128, Seed: seed, Check: true,
				})
				if code != http.StatusOK {
					t.Errorf("%s/%d: status %d: %s", name, seed, code, body)
					return
				}
				got := []byte(decodeResponse(t, body).Stats)
				if !bytes.Equal(want[key{name, seed}], got) {
					t.Errorf("%s/%d: pooled stats diverge from fresh run:\nwant: %s\ngot:  %s",
						name, seed, want[key{name, seed}], got)
				}
			}(name, s)
		}
	}
	wg.Wait()
}

// poolSpecOf resolves the RACER spec the way the server under test did, so
// reference runs use the identical backend object.
func poolSpecOf(t *testing.T, _ string) *backends.Spec {
	t.Helper()
	spec, err := backends.ByName("racer")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestServeIsolationAcrossRequests: a pooled machine recycles its register
// files from one request to the next, and a submitted binary may dump any
// register — so whatever the previous tenant left, by host preload, by the
// engine or by a whole kernel run, the next tenant on the same one-machine
// pool must read zeros in every register its own program did not write.
func TestServeIsolationAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pools: []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
	})
	binary := func(src string) string {
		prog, err := isa.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		return base64.StdEncoding.EncodeToString(isa.EncodeProgram(prog))
	}
	secret := make([]uint64, backends.RACER().Lanes)
	for i := range secret {
		secret[i] = 0xdeadbeef00000000 | uint64(i)
	}
	tenantA := []Request{
		// r9 by host preload, r12 and r13 by the engine.
		{Binary: binary("COMPUTE rfh0 vrf0\nADD r9 r9 r12\nINV r9 r13\nCOMPUTE_DONE\n"), Backend: "racer",
			Sets: []RegisterSet{{RFH: 0, VRF: 0, Reg: 9, Values: secret}}},
		// A kernel that writes many registers of the same VRF.
		{Workload: "sobelx", Backend: "racer", Elements: 256, Seed: 4, Check: true},
	}
	tenantB := Request{
		Binary:  binary("COMPUTE rfh0 vrf0\nADD r0 r1 r2\nCOMPUTE_DONE\n"),
		Backend: "racer",
		Sets: []RegisterSet{
			{RFH: 0, VRF: 0, Reg: 0, Values: []uint64{3, 5, 7}},
			{RFH: 0, VRF: 0, Reg: 1, Values: []uint64{10, 20, 30}},
		},
	}
	for reg := 0; reg < isa.NumRegs; reg++ {
		tenantB.Dumps = append(tenantB.Dumps, RegisterRef{RFH: 0, VRF: 0, Reg: reg})
	}
	for i, a := range tenantA {
		if code, body, _ := postExecute(t, ts.URL, a); code != http.StatusOK {
			t.Fatalf("tenant A request %d: %d %s", i, code, body)
		}
		code, body, _ := postExecute(t, ts.URL, tenantB)
		if code != http.StatusOK {
			t.Fatalf("tenant B after A's request %d: %d %s", i, code, body)
		}
		dumps := decodeResponse(t, body).Dumps
		if len(dumps) != isa.NumRegs {
			t.Fatalf("tenant B got %d dumps, want %d", len(dumps), isa.NumRegs)
		}
		own := map[int][]uint64{0: {3, 5, 7}, 1: {10, 20, 30}, 2: {13, 25, 37}}
		for _, d := range dumps {
			for l, x := range d.Values {
				var want uint64
				if l < len(own[d.Reg]) {
					want = own[d.Reg][l]
				}
				if x != want {
					t.Fatalf("after A's request %d: tenant B reads r%d lane %d = %#x, want %#x", i, d.Reg, l, x, want)
				}
			}
		}
	}
}
