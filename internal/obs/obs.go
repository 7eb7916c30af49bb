// Package obs is the ops plane both serving tiers compile against: one
// Prometheus-text registry (mpud and mpurouter declare their catalogues on
// it), the typed /healthz body the router's probe reads node load from, and
// the profiler server both run behind -pprof.
// Like internal/serve and internal/router it is stdlib-only — the handful of
// series the two daemons expose do not justify a client library.
//
// Rendering is deterministic: families in declaration order, series sorted
// by label values, integer samples printed with %d and float samples in
// their shortest round-trip form, so each tier's exposition can be pinned
// byte-for-byte by a golden file.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is an ordered set of metric families; the zero value is empty.
// Declare every family before the registry is shared between goroutines;
// after that, binding series, observing and WriteTo are all safe to call
// concurrently.
type Registry struct {
	families []interface{ write(*bytes.Buffer) }
}

// WriteTo emits the text exposition format (version 0.0.4).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	for _, f := range r.families {
		f.write(&b)
	}
	return b.WriteTo(w)
}

// sample is one series' value; it renders its own sample lines. labels is
// the rendered label set without braces ("" for an unlabelled series).
type sample interface {
	write(b *bytes.Buffer, name, labels string)
}

// Family is one metric name: its help text, type, label names and the series
// bound so far. A family with no series still emits its HELP and TYPE lines.
type Family[S sample] struct {
	name, help, kind string
	labels           []string
	newSample        func() S

	mu     sync.Mutex
	series []series[S] // sorted by values: the lookup index and the emission order
}

type series[S sample] struct {
	values []string // one per label name
	sample S
}

func declare[S sample](r *Registry, kind, name, help string, labels []string, newSample func() S) *Family[S] {
	f := &Family[S]{name: name, help: help, kind: kind, labels: labels, newSample: newSample}
	r.families = append(r.families, f)
	return f
}

// Counter declares a monotonically increasing integer family.
func (r *Registry) Counter(name, help string, labels ...string) *Family[*Int] {
	return declare(r, "counter", name, help, labels, func() *Int { return new(Int) })
}

// Gauge declares an integer gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Family[*Int] {
	return declare(r, "gauge", name, help, labels, func() *Int { return new(Int) })
}

// FloatGauge declares a float gauge family.
func (r *Registry) FloatGauge(name, help string, labels ...string) *Family[*Float] {
	return declare(r, "gauge", name, help, labels, func() *Float { return new(Float) })
}

// Histogram declares a cumulative-bucket histogram family over the given
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Family[*Histogram] {
	return declare(r, "histogram", name, help, labels, func() *Histogram {
		return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
	})
}

// With returns the series for the given label values, one per declared label
// name, creating it at zero on first use. Bind once and keep the handle where
// the values are known up front; a call costs one binary search under the
// family's mutex. Invalid UTF-8 in a value is replaced with U+FFFD before the
// lookup, so two values that would render alike share one series; an empty
// value leaves its label out of the rendering.
func (f *Family[S]) With(values ...string) S {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	clean := make([]string, len(values))
	for i, v := range values {
		clean[i] = strings.ToValidUTF8(v, "\uFFFD")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := slices.BinarySearchFunc(f.series, clean, func(s series[S], v []string) int {
		return slices.Compare(s.values, v)
	})
	if !ok {
		f.series = slices.Insert(f.series, i, series[S]{clean, f.newSample()})
	}
	return f.series[i].sample
}

// labelEscaper applies the exposition format's label-value escapes — exactly
// backslash, double quote and newline. Every other character passes through
// raw: Go's %q would also escape tabs and non-ASCII, which a conforming
// reader rejects.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (f *Family[S]) write(b *bytes.Buffer) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.series {
		var pairs []string
		for i, v := range s.values {
			if v != "" { // in the data model an empty value is an absent label
				pairs = append(pairs, f.labels[i]+`="`+labelEscaper.Replace(v)+`"`)
			}
		}
		s.sample.write(b, f.name, strings.Join(pairs, ","))
	}
}

// writeSample emits one "name{labels} value" line.
func writeSample(b *bytes.Buffer, name, labels, value string) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	b.WriteString(name + labels + " " + value + "\n")
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Int is a counter or integer-gauge series.
type Int struct{ v atomic.Int64 }

func (i *Int) Inc()         { i.v.Add(1) }
func (i *Int) Add(d int64)  { i.v.Add(d) }
func (i *Int) Set(v int64)  { i.v.Store(v) }
func (i *Int) Value() int64 { return i.v.Load() }

func (i *Int) write(b *bytes.Buffer, name, labels string) {
	writeSample(b, name, labels, strconv.FormatInt(i.Value(), 10))
}

// Float is a float-gauge series.
type Float struct{ bits atomic.Uint64 }

func (f *Float) Set(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *Float) write(b *bytes.Buffer, name, labels string) {
	writeSample(b, name, labels, formatFloat(math.Float64frombits(f.bits.Load())))
}

// Histogram is a cumulative-bucket histogram series in the exposition sense:
// counts[i] counts observations ≤ bounds[i]; +Inf is implicit.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64
	sum    float64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
	h.sum += v
	h.n++
}

func (h *Histogram) write(b *bytes.Buffer, name, labels string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	le := labels
	if le != "" {
		le += ","
	}
	for i, bound := range h.bounds {
		writeSample(b, name+"_bucket", le+`le="`+formatFloat(bound)+`"`, strconv.FormatUint(h.counts[i], 10))
	}
	writeSample(b, name+"_bucket", le+`le="+Inf"`, strconv.FormatUint(h.n, 10))
	writeSample(b, name+"_sum", labels, formatFloat(h.sum))
	writeSample(b, name+"_count", labels, strconv.FormatUint(h.n, 10))
}
