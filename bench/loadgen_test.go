package main

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 500, 2*time.Second)
	b := poissonSchedule(7, 500, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := poissonSchedule(8, 500, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := len(a); n < 800 || n > 1200 {
		t.Fatalf("%d arrivals at 500/s over 2s", n)
	}
	for i, at := range a {
		if at < 0 || at >= 2*time.Second || (i > 0 && at < a[i-1]) {
			t.Fatalf("arrival %d at %v: not ascending inside the window", i, at)
		}
	}
}

func TestMedianAndTailPicksWhatTheSampleSupports(t *testing.T) {
	for _, c := range []struct {
		n    int
		tail string
	}{{1, "p50"}, {39, "p50"}, {40, "p75"}, {99, "p75"}, {100, "p90"}, {199, "p90"}, {200, "p95"}, {1000, "p99"}, {10000, "p99.9"}} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(c.n - i) // 1..n, unsorted
		}
		p50, tail, name := medianAndTail(s)
		if name != c.tail {
			t.Errorf("n=%d: tail %s, want %s", c.n, name, c.tail)
		}
		if want := float64((c.n + 1) / 2); p50 != want {
			t.Errorf("n=%d: median %v, want %v", c.n, p50, want)
		}
		if beyond := float64(c.n) - tail; name != "p50" && beyond < 10 {
			t.Errorf("n=%d: %s=%v leaves %v samples beyond it", c.n, name, tail, beyond)
		}
	}
	if p50, tail, _ := medianAndTail(nil); p50 != 0 || tail != 0 {
		t.Error("an empty sample has no percentiles")
	}
}

func TestBestIsTheDecileOnTheGoodSide(t *testing.T) {
	s := []float64{30, 10, 20, 50, 40, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200}
	if got := best(s, lower); got != 20 {
		t.Errorf("lower is better: %v, want 20", got)
	}
	if got := best(s, higher); got != 190 {
		t.Errorf("higher is better: %v, want 190", got)
	}
	if best(nil, lower) != 0 || best([]float64{7}, higher) != 7 {
		t.Error("best of none is 0, of one is that one")
	}
}

// A refused, failed or wrong response is counted against the number sent and
// contributes no latency.
func TestFailedRequestsCountAsMissing(t *testing.T) {
	call := func(_, i int) error {
		switch i % 4 {
		case 1:
			return errors.New("503 refused")
		case 2:
			return fmt.Errorf("stats %w", errMismatch)
		}
		return nil
	}
	var started atomic.Int64
	for name, res := range map[string]loadResult{
		"closed": closedLoop(2, func(time.Duration) bool { return started.Add(1) <= 40 }, call),
		"open":   openLoop(2, make([]time.Duration, 40), call),
	} {
		if res.Sent != 40 || res.OK != 20 || res.Failed != 20 {
			t.Errorf("%s: sent %d, ok %d, failed %d, want 40, 20, 20", name, res.Sent, res.OK, res.Failed)
		}
		if res.Mismatches != 10 {
			t.Errorf("%s: %d of the failed are mismatches, want 10", name, res.Mismatches)
		}
		if len(res.LatMS) != res.OK || len(res.AtMS) != res.OK {
			t.Errorf("%s: %d latencies for %d ok requests", name, len(res.LatMS), res.OK)
		}
		if res.FirstErr == nil {
			t.Errorf("%s: the first error is lost", name)
		}
	}
}

// An open loop times a request from when it was due: a stall is charged to
// the requests queued behind it, and shows as lag.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	sched := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	res := openLoop(1, sched, func(_, _ int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if res.OK != 3 {
		t.Fatalf("ok %d of 3", res.OK)
	}
	// Request 2 was due at 2ms and could start only after two 20ms calls.
	if res.LatMS[2] < 55 {
		t.Errorf("third latency %.1fms: not from its due time", res.LatMS[2])
	}
	if lag := percentile(res.LagMS, 1); lag < 35 {
		t.Errorf("largest lag %.1fms: the generator ran late and did not say", lag)
	}
	if res.AtMS[2] != 2 {
		t.Errorf("third request filed at %vms, was due at 2ms", res.AtMS[2])
	}
}

func TestSlices(t *testing.T) {
	r := loadResult{Clients: 2}
	for i := 29; i >= 0; i-- { // recorded out of order, as merged clients are
		r.record(nil, float64(i*10), float64(i%10+1)) // latencies 1..10ms in turn
	}
	// Slices of 10 consecutive requests start every 2: at 0, 2, ..., 20.
	s := r.slices(10)
	if len(s.p50) != 11 || s.p50[0] != 5 || s.p90[5] != 9 {
		t.Fatalf("slices %+v", s)
	}
	// Two callers never idle with a mean latency of 5.5ms: 2/0.0055 per second.
	if got, want := s.okPerS[5], 2/0.0055; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("rate %v, want %v", got, want)
	}
	// A loop shorter than a slice is one slice.
	if s := r.slices(31); len(s.p50) != 1 || s.p50[0] != 5 || s.p90[0] != 9 {
		t.Errorf("a loop shorter than a slice: %+v", s)
	}
	if s := (&loadResult{}).slices(10); len(s.p50) != 0 {
		t.Errorf("an empty loop has slices: %+v", s)
	}
}
