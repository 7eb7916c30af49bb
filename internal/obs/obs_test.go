package obs

import (
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var sb strings.Builder
	r.WriteTo(&sb)
	return sb.String()
}

// TestWriteToShape pins the rendering rules the two tiers' goldens rely on:
// declaration order, series sorted by label values, HELP/TYPE for a family
// with no series yet, cumulative buckets with the implicit +Inf, %d for
// integers (never 1.2345678e+07) and shortest round-trip floats (1e-05).
func TestWriteToShape(t *testing.T) {
	r := &Registry{}
	zeta := r.Counter("zeta_total", "Declared first.", "node", "pool")
	r.Counter("empty_total", "No series yet.", "tenant")
	big := r.Counter("big_total", "An integer sample.").With()
	delay := r.FloatGauge("delay_seconds", "A float sample.").With()
	depth := r.Gauge("depth", "A label that may be empty.", "node", "pool")
	h := r.Histogram("op_seconds", "Cumulative buckets.", []float64{0.00001, 0.5, 2}, "class")

	zeta.With("n2", "a").Inc()
	zeta.With("n1", "b").Add(2)
	zeta.With("n1", "a").Add(3)
	big.Add(12345678)
	delay.Set(0.025)
	depth.With("", "RACER/MPU").Set(-4)
	for _, v := range []float64{0.000005, 0.25, 0.25, 1, 31} {
		h.With("batch").Observe(v)
	}

	const want = `# HELP zeta_total Declared first.
# TYPE zeta_total counter
zeta_total{node="n1",pool="a"} 3
zeta_total{node="n1",pool="b"} 2
zeta_total{node="n2",pool="a"} 1
# HELP empty_total No series yet.
# TYPE empty_total counter
# HELP big_total An integer sample.
# TYPE big_total counter
big_total 12345678
# HELP delay_seconds A float sample.
# TYPE delay_seconds gauge
delay_seconds 0.025
# HELP depth A label that may be empty.
# TYPE depth gauge
depth{pool="RACER/MPU"} -4
# HELP op_seconds Cumulative buckets.
# TYPE op_seconds histogram
op_seconds_bucket{class="batch",le="1e-05"} 1
op_seconds_bucket{class="batch",le="0.5"} 3
op_seconds_bucket{class="batch",le="2"} 4
op_seconds_bucket{class="batch",le="+Inf"} 5
op_seconds_sum{class="batch"} 32.500005
op_seconds_count{class="batch"} 5
`
	if got := render(r); got != want {
		t.Fatalf("rendering drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if zeta.With("n1", "a") != zeta.With("n1", "a") {
		t.Fatal("With returned two handles for one label set")
	}
}

// TestLabelValueEscaping: the text format escapes exactly backslash, double
// quote and newline in a label value. Go's %q — what both tiers used before —
// also escapes tabs and non-ASCII, which a conforming reader rejects.
func TestLabelValueEscaping(t *testing.T) {
	for _, tc := range []struct{ value, want string }{
		{"a\tb", "a\tb"},
		{"caf\xe9", "caf\uFFFD"}, // invalid UTF-8 becomes U+FFFD
		{"a\u00a0b", "a\u00a0b"}, // NBSP passes through raw
		{`q"uote`, `q\"uote`},
		{`back\slash`, `back\\slash`},
		{"line\nfeed", `line\nfeed`},
	} {
		r := &Registry{}
		r.Counter("granted_total", "Grants.", "tenant").With(tc.value).Inc()
		want := `granted_total{tenant="` + tc.want + `"} 1` + "\n"
		if got := render(r); !strings.HasSuffix(got, "counter\n"+want) {
			t.Errorf("value %q rendered as\n%swant line %q", tc.value, got, want)
		}
	}
	// Two raw values that sanitise alike are one series, not a duplicate line.
	r := &Registry{}
	f := r.Counter("granted_total", "Grants.", "tenant")
	f.With("caf\xe9").Inc()
	f.With("caf\xe8").Inc()
	if got := render(r); !strings.HasSuffix(got, "counter\ngranted_total{tenant=\"caf\uFFFD\"} 2\n") {
		t.Errorf("sanitised values did not share a series:\n%s", got)
	}
}

func TestWithArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("With accepted one value for two label names")
		}
	}()
	(&Registry{}).Counter("x_total", "X.", "a", "b").With("only-one")
}

// TestRegistryHammer binds new series, observes and renders concurrently;
// `make race-short` runs it under the race detector.
func TestRegistryHammer(t *testing.T) {
	r := &Registry{}
	total := r.Counter("ops_total", "Ops.").With()
	byWorker := r.Counter("worker_ops_total", "Ops by worker and step.", "worker", "step")
	level := r.FloatGauge("level", "Level.").With()
	seconds := r.Histogram("op_seconds", "Op time.", []float64{0.5, 1}, "worker")

	const workers, steps = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	rendered := make(chan struct{})
	go func() {
		defer close(rendered)
		for {
			select {
			case <-stop:
				return
			default:
				r.WriteTo(io.Discard)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprint("w", w)
			for i := 0; i < steps; i++ {
				total.Inc()
				byWorker.With(name, fmt.Sprint(i%10)).Inc()
				level.Set(float64(i))
				seconds.With(name).Observe(float64(i%3) / 2)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-rendered

	got := render(r)
	for _, want := range []string{
		fmt.Sprintf("ops_total %d\n", workers*steps),
		fmt.Sprintf("worker_ops_total{worker=\"w7\",step=\"9\"} %d\n", steps/10),
		fmt.Sprintf("op_seconds_count{worker=\"w0\"} %d\n", steps),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("after the hammer, missing %q", want)
		}
	}
	if n := strings.Count(got, "worker_ops_total{"); n != workers*10 {
		t.Errorf("worker_ops_total has %d series, want %d", n, workers*10)
	}
}

// TestCatalogueDocumented keeps docs/SERVE.md honest: every family either
// tier's golden exposition declares must be named there.
func TestCatalogueDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, golden := range []string{"../serve/testdata/metrics.golden", "../router/testdata/metrics.golden"} {
		text, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllSubmatch(text, -1) {
			if !regexp.MustCompile(`\b` + string(m[1]) + `\b`).Match(doc) {
				t.Errorf("docs/SERVE.md does not name %s (declared in %s)", m[1], golden)
			}
		}
	}
}
