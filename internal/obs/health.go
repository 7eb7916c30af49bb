package obs

// NodeHealth is the body of mpud's GET /healthz. It is declared here, once,
// so the daemon that encodes it and the router probe that decodes it cannot
// drift apart — and so internal/router need not import internal/serve.
type NodeHealth struct {
	Status     string   `json:"status"` // "ok", or "draining" with a 503
	Node       string   `json:"node,omitempty"`
	Pools      []string `json:"pools"`
	UpSec      float64  `json:"up_sec"`
	QueueDepth int64    `json:"queue_depth"` // batches waiting, summed over pools
	Inflight   int64    `json:"inflight"`    // admitted requests not yet answered
}
