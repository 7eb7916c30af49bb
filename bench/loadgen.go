package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The only load generator the benchmark uses. A closed loop models callers
// that each wait for a reply (a slow system receives less load); an open
// loop sends on a seeded Poisson schedule regardless, and times every
// request from the moment it was due, so a stall is charged to every
// request queued behind it.

// callFunc issues request i on the given client (0..clients-1) and reports
// whether it succeeded. A refused, failed, shed or wrong response returns an
// error and is counted against the number attempted.
type callFunc func(client, i int) error

// errMismatch marks a response that arrived but differs from its reference.
// It counts as failed, and separately as a stats mismatch.
var errMismatch = errors.New("differs from the reference")

// loadResult is one loop's accounting. Sent = OK + Failed always; Mismatches
// is the part of Failed that wraps errMismatch.
type loadResult struct {
	Sent, OK, Failed int
	Mismatches       int
	Clients          int           // closed loop only
	Elapsed          time.Duration // start to the last completion
	LatMS            []float64     // per OK request; open loop: from the due time
	AtMS             []float64     // per OK request: when it completed (closed) or was due (open), from the start
	LagMS            []float64     // open loop only: actual send minus due time
	FirstErr         error
}

// okPerS is the loop's throughput. Elapsed ends at the last completion, so a
// closed loop's rate carries no partial-request quantisation.
func (r *loadResult) okPerS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// samples is what one repetition contributes to the three timed end-to-end
// metrics. A request stream gives one value of each per slice of requests; an
// in-process workload gives, per kernel, the time of each pass. Either way a
// metric is reported as best() of its samples, pooled over the repetitions.
type samples struct {
	okPerS, p50, p90 []float64
	kernelMS         [][]float64 // per case (a kernel on one input), per pass
	kernelOf         []int       // which kernel each case runs
}

func (s *samples) add(o samples) {
	s.okPerS = append(s.okPerS, o.okPerS...)
	s.p50 = append(s.p50, o.p50...)
	s.p90 = append(s.p90, o.p90...)
	if s.kernelMS == nil {
		s.kernelMS, s.kernelOf = make([][]float64, len(o.kernelMS)), o.kernelOf
	}
	for k, times := range o.kernelMS {
		s.kernelMS[k] = append(s.kernelMS[k], times...)
	}
}

// headline reduces the samples to ok_per_s, latency_p50_ms and
// latency_p90_ms. A kernel execution is the same work every pass, so what
// the host adds is never negative and the fastest pass is the closest to the
// kernel's own cost; kernels are reduced one by one before they are
// combined, because a quiet moment of the host rarely lasts a whole pass but
// over a run each kernel meets one. A slice's percentile errs both ways, so
// there the best decile is taken, not the extreme.
func (s *samples) headline() (okPerS, p50, p90 float64) {
	if len(s.kernelMS) == 0 {
		return best(s.okPerS, higher), best(s.p50, lower), best(s.p90, lower)
	}
	lat := s.kernelLatencies()
	var total float64
	for _, times := range s.kernelMS {
		total += slices.Min(times)
	}
	return float64(len(s.kernelMS)) / (total / 1e3), percentile(lat, 0.5), percentile(lat, 0.9)
}

// kernelLatencies is each kernel's latency: its fastest pass, averaged over
// the kernel's inputs.
func (s *samples) kernelLatencies() []float64 {
	lat := make([]float64, slices.Max(s.kernelOf)+1)
	n := make([]float64, len(lat))
	for c, times := range s.kernelMS {
		lat[s.kernelOf[c]] += slices.Min(times)
		n[s.kernelOf[c]]++
	}
	for k := range lat {
		lat[k] /= n[k]
	}
	return lat
}

// slices cuts the loop's requests, in AtMS order, into overlapping slices of n
// consecutive requests, one starting every n/4, and returns each slice's
// latency percentiles and, for a closed loop, its rate. Counting requests,
// not milliseconds, keeps the sample behind every percentile the same size
// however fast the system answers, and the overlap means a quiet spell of
// the host need not line up with a grid. A closed loop's callers never idle,
// so a slice's rate is clients over the mean latency of its requests: free
// of the quantisation a count per unit of time would carry. A loop of fewer
// than n requests is one slice.
func (r *loadResult) slices(n int) samples {
	order := make([]int, len(r.LatMS))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r.AtMS[order[a]] < r.AtMS[order[b]] })
	lat := make([]float64, len(order))
	for i, j := range order {
		lat[i] = r.LatMS[j]
	}
	var out samples
	for lo := 0; lo < len(lat); lo += max(n/4, 1) {
		l := lat[lo:min(lo+n, len(lat))]
		if len(l) < n && lo > 0 {
			break
		}
		out.p50 = append(out.p50, percentile(l, 0.5))
		out.p90 = append(out.p90, percentile(l, 0.9))
		if r.Clients > 0 {
			out.okPerS = append(out.okPerS, float64(r.Clients)/(mean(l)/1e3))
		}
	}
	return out
}

func (r *loadResult) merge(o *loadResult) {
	r.Sent += o.Sent
	r.OK += o.OK
	r.Failed += o.Failed
	r.Mismatches += o.Mismatches
	r.LatMS = append(r.LatMS, o.LatMS...)
	r.AtMS = append(r.AtMS, o.AtMS...)
	r.LagMS = append(r.LagMS, o.LagMS...)
	if r.FirstErr == nil {
		r.FirstErr = o.FirstErr
	}
}

// record counts one request: at is its AtMS, latMS its latency.
func (r *loadResult) record(err error, at, latMS float64) {
	r.Sent++
	if err != nil {
		r.Failed++
		if errors.Is(err, errMismatch) {
			r.Mismatches++
		}
		if r.FirstErr == nil {
			r.FirstErr = err
		}
		return
	}
	r.OK++
	r.LatMS = append(r.LatMS, latMS)
	r.AtMS = append(r.AtMS, at)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// poissonSchedule returns the due offsets of a Poisson arrival process of the
// given rate (per second) over d. The same seed gives the same schedule.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// forDuration is the usual end of a closed loop: d after its start.
func forDuration(d time.Duration) func(time.Duration) bool {
	return func(elapsed time.Duration) bool { return elapsed < d }
}

// closedLoop runs `clients` callers back to back while more(elapsed) holds.
// Requests in flight when it stops holding complete and are counted.
func closedLoop(clients int, more func(elapsed time.Duration) bool, call callFunc) loadResult {
	var next atomic.Int64
	parts := make([]loadResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for more(time.Since(start)) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				err := call(c, i)
				parts[c].record(err, msSince(start), msSince(t0))
			}
		}(c)
	}
	wg.Wait()
	out := mergeParts(parts, time.Since(start))
	out.Clients = clients
	return out
}

// openLoop sends request i at start+sched[i] over at most `clients`
// connections. When every connection is busy past a due time the request
// goes out late; the lateness is reported as lag and still counts in the
// request's latency.
func openLoop(clients int, sched []time.Duration, call callFunc) loadResult {
	var next atomic.Int64
	parts := make([]loadResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				time.Sleep(time.Until(due))
				parts[c].LagMS = append(parts[c].LagMS, msSince(due))
				err := call(c, i)
				parts[c].record(err, float64(sched[i])/1e6, msSince(due))
			}
		}(c)
	}
	wg.Wait()
	return mergeParts(parts, time.Since(start))
}

func mergeParts(parts []loadResult, elapsed time.Duration) loadResult {
	out := loadResult{Elapsed: elapsed}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// percentile is the nearest-rank q-quantile (0<q<=1) of samples; 0 when
// there are none. It sorts a copy.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// mean is the arithmetic mean; 0 when there are no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, x := range samples {
		sum += x
	}
	return sum / float64(len(samples))
}

// best is the value a tenth of the samples beat: the first decile of a
// metric where lower is better, the last where higher is. On the shared host
// this was built on, identical work takes anything from 1x to 2x as long,
// for seconds at a time, as neighbours outside the sandbox come and go, and
// how much of a run is disturbed varies from run to run. A median moves with
// that share; the best decile stays put as long as a tenth of the run was
// quiet, and still moves by what a change to the program itself costs.
func best(samples []float64, better string) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(0.1*float64(len(s)))) - 1
	if better == higher {
		return s[len(s)-1-i]
	}
	return s[i]
}

// tailPercentiles are the candidates for "the highest percentile the sample
// supports", highest first.
var tailPercentiles = []struct {
	q    float64
	name string
}{{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.75, "p75"}}

// medianAndTail returns the median and the highest percentile that has at
// least ten samples beyond it, and says which one that is. With fewer than
// 40 samples no tail percentile qualifies and the median is returned twice,
// named "p50".
func medianAndTail(samples []float64) (p50, tail float64, tailName string) {
	p50 = median(samples)
	n := float64(len(samples))
	for _, c := range tailPercentiles {
		if n-math.Ceil(c.q*n) >= 10 {
			return p50, percentile(samples, c.q), c.name
		}
	}
	return p50, p50, "p50"
}

// tailNote annotates a printed latency with its sample count and the highest
// supported percentile.
func tailNote(samples []float64) string {
	_, tail, name := medianAndTail(samples)
	return fmt.Sprintf("n=%d, highest percentile with >=10 samples beyond it: %s=%.4g", len(samples), name, tail)
}
