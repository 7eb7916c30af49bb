package serve

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// reqLogger writes one structured JSON line per answered request. It is a
// deliberate non-dependency logger: the daemon's operational surface is
// small enough that a mutex around an io.Writer beats pulling a logging
// framework into a stdlib-only module.
type reqLogger struct {
	mu   sync.Mutex
	w    io.Writer
	node string // cluster node label, stamped on every entry when non-empty
	now  func() time.Time
}

func newReqLogger(w io.Writer, node string) *reqLogger {
	return &reqLogger{w: w, node: node, now: time.Now}
}

// logEntry is the request-log schema; field order is the JSON order.
type logEntry struct {
	TS       string  `json:"ts"`
	Msg      string  `json:"msg"`
	Node     string  `json:"node,omitempty"`
	Pool     string  `json:"pool,omitempty"`
	Workload string  `json:"workload,omitempty"`
	Pipeline string  `json:"pipeline,omitempty"`
	Class    string  `json:"class,omitempty"`
	Status   int     `json:"status,omitempty"`
	MS       float64 `json:"ms,omitempty"`
	Queue    int     `json:"queue,omitempty"`
	Err      string  `json:"err,omitempty"`

	pool *pool // fills Pool and Queue when the line is written
}

func (l *reqLogger) log(e logEntry) {
	if l == nil || l.w == nil {
		return
	}
	e.TS = l.now().UTC().Format(time.RFC3339Nano)
	if e.Node == "" {
		e.Node = l.node
	}
	if e.pool != nil {
		e.Pool, e.Queue = e.pool.name, e.pool.depth()
	}
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	l.w.Write(b)
	l.mu.Unlock()
}
