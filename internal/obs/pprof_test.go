package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// The profiler server answers under /debug/pprof/ and nothing else.
func TestProfilerServer(t *testing.T) {
	ts := httptest.NewServer(ProfilerServer().Handler)
	defer ts.Close()
	for path, want := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/debug/pprof/cmdline": http.StatusOK,
		"/v1/execute":          http.StatusNotFound,
		"/metrics":             http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}
