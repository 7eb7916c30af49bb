package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, root, rel, src string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRepolintRules(t *testing.T) {
	root := t.TempDir()
	// Violation: global rand source outside workloads.
	write(t, root, "internal/sweep/s.go", `package sweep
import "math/rand"
func f() int { return rand.Intn(10) }
`)
	// Allowed: explicit generator construction.
	write(t, root, "internal/sweep/ok.go", `package sweep
import "math/rand"
func g() *rand.Rand { return rand.New(rand.NewSource(1)) }
`)
	// Allowed: workloads seeding helper.
	write(t, root, "internal/workloads/w.go", `package workloads
import "math/rand"
func h() int { return rand.Intn(10) }
`)
	// Violation: bitvec import outside the plane layer.
	write(t, root, "internal/machine/m.go", `package machine
import _ "mpu/internal/bitvec"
`)
	// Allowed: the vrf layer owns the planes.
	write(t, root, "internal/vrf/v.go", `package vrf
import _ "mpu/internal/bitvec"
`)
	// Violations: the no-timeout helper and a bare http.Server literal;
	// allowed: a literal with explicit timeouts, and test files.
	write(t, root, "cmd/bad/main.go", `package main
import "net/http"
func main() {
	http.ListenAndServe(":8080", nil)
	_ = &http.Server{Addr: ":8081"}
}
`)
	write(t, root, "cmd/good/main.go", `package main
import (
	"net/http"
	"time"
)
func main() {
	s := &http.Server{ReadHeaderTimeout: time.Second, WriteTimeout: time.Second}
	_ = s
}
`)
	write(t, root, "cmd/good/main_test.go", `package main
import "net/http"
func helper() { http.ListenAndServe(":0", nil) }
`)

	findings, err := lintTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 4 {
		t.Fatalf("got %d findings, want 4:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	joined := strings.Join(findings, "\n")
	for _, want := range []string{"rand-global-source", "bitvec-import", "http-server-timeouts"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q finding:\n%s", want, joined)
		}
	}
	if n := strings.Count(joined, "http-server-timeouts"); n != 2 {
		t.Errorf("got %d http-server-timeouts findings, want 2 (helper call + bare literal; timeouts and tests exempt):\n%s", n, joined)
	}
}

// The repository itself must be clean.
func TestRepolintSelf(t *testing.T) {
	findings, err := lintTree("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("repository not repolint-clean:\n%s", strings.Join(findings, "\n"))
	}
}
