package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into a layer's public function or around an HTTP call. Spans of one
// request share ReqID; Parent is the ID of the span that caused this one (0
// for a root). Units, when set, is the work the call did (simulated
// micro-ops), so a per-unit cost is measured where the work happens.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	ReqID    int64  `json:"req_id"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Units    uint64 `json:"units,omitempty"`
}

func (s *span) durMS() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory; they are written out when the benchmark
// ends. A nil *tracer records nothing, so the untraced run calls the same
// code paths at the cost of a nil check.
type tracer struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
	reqs     int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// newReq returns a fresh request identifier.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, req int64, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Workload: t.workload, Name: name, ReqID: req, ID: id, Parent: parent})
	t.spans[id-1].StartNS = int64(time.Since(t.epoch))
	return id
}

// end closes span id, optionally recording the work units it covered.
func (t *tracer) end(id int, units uint64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].Units = units
	t.mu.Unlock()
}

// timed records fn as one root span of its own request.
func (t *tracer) timed(name string, units uint64, fn func()) {
	id := t.begin(name, t.newReq(), 0)
	fn()
	t.end(id, units)
}

// durations returns the lengths, in milliseconds, of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].durMS())
		}
	}
	return out
}

// bestMS is the best-decile length of the spans called name (0 if none):
// for spans that all time the same call.
func (t *tracer) bestMS(name string) float64 { return best(t.durations(name), lower) }

// meanMS is the mean length of the spans called name (0 if none).
func (t *tracer) meanMS(name string) float64 { return mean(t.durations(name)) }

// nsPerUnit is total span time over total units for the spans called name.
func (t *tracer) nsPerUnit(name string) float64 {
	var ns, units float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			ns += float64(s.EndNS - s.StartNS)
			units += float64(s.Units)
		}
	}
	if units == 0 {
		return 0
	}
	return ns / units
}

// unattributedPct is the share of the time under spans called root that no
// child span covers: the root spans' self time over their total time. The
// per-layer numbers account for a request only as far as this stays small.
func (t *tracer) unattributedPct(root string) float64 {
	children := map[int]int64{}
	for i := range t.spans {
		s := &t.spans[i]
		children[s.Parent] += s.EndNS - s.StartNS
	}
	var total, self int64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == root {
			d := s.EndNS - s.StartNS
			total += d
			self += d - children[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(self) / float64(total)
}

// writeSpans appends every tracer's spans to path as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
