package obs

import (
	"net/http"
	"net/http/pprof"
	"time"
)

// ProfilerServer is the server both daemons run behind -pprof, on a
// listener of its own and never on their API mux: net/http/pprof's
// endpoints under /debug/pprof/, with the API servers' explicit timeouts.
// Its write timeout bounds the longest CPU profile or execution trace a
// client may ask for (pprof refuses longer ones up front). Importing
// net/http/pprof also registers its handlers on http.DefaultServeMux, so no
// server in the tree may serve that mux.
func ProfilerServer() *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}
