// Command repolint enforces repository-wide source hygiene rules that go vet
// does not cover. It is stdlib-only (go/parser + go/ast) and runs from
// `make check`.
//
// Rules:
//
//  1. rand-global-source — no calls through math/rand's package-level
//     generator (rand.Intn, rand.Uint64, ...). Experiments must be
//     reproducible from explicit seeds, so every generator flows through
//     rand.New(rand.NewSource(seed)). Constructor calls (New, NewSource)
//     are allowed everywhere; internal/workloads hosts the seeding helpers
//     and is exempt.
//
//  2. bitvec-import — only internal/bitvec and internal/vrf may import
//     mpu/internal/bitvec. Bit-plane mutation is the datapath's lowest
//     layer; every other package must go through the vrf abstraction so
//     capacity checks and energy accounting cannot be bypassed.
//
//  3. http-server-timeouts — no http.ListenAndServe/ListenAndServeTLS
//     (they build servers with no timeouts at all), and every http.Server
//     composite literal must set WriteTimeout plus ReadTimeout or
//     ReadHeaderTimeout. mpud is a long-running daemon; a server without
//     these lets one stalled client pin a connection forever. Test files
//     are exempt (they use httptest).
//
// Who may write a struct field is not a rule here: a name-based allowlist is
// walked past by an alias or a same-named method, while the differential
// tests (TestTraceParity, FuzzJITParity, TestSnapshotResumeParity*,
// TestPipelineLimits) fail on the forged write itself.
//
// Usage: repolint [root]   (default root ".")
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := lintTree(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// randConstructors are the math/rand selectors that build explicit
// generators rather than touching the global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func lintTree(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fs, err := lintFile(path, filepath.ToSlash(rel))
		if err != nil {
			return err
		}
		findings = append(findings, fs...)
		return nil
	})
	return findings, err
}

func lintFile(path, rel string) ([]string, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	var findings []string
	addf := func(pos token.Pos, rule, format string, args ...any) {
		findings = append(findings, fmt.Sprintf("%s: %s [%s]",
			fset.Position(pos), fmt.Sprintf(format, args...), rule))
	}

	// Rule 2: bitvec-import.
	inBitvecLayer := strings.HasPrefix(rel, "internal/bitvec/") || strings.HasPrefix(rel, "internal/vrf/")
	// Rule 1 exemption: the workloads package owns the seeding helpers.
	inWorkloads := strings.HasPrefix(rel, "internal/workloads/")

	randNames := map[string]bool{} // local names bound to math/rand
	httpNames := map[string]bool{} // local names bound to net/http
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		switch p {
		case "mpu/internal/bitvec":
			if !inBitvecLayer {
				addf(imp.Pos(), "bitvec-import",
					"import of mpu/internal/bitvec outside internal/bitvec and internal/vrf — mutate planes through internal/vrf")
			}
		case "math/rand", "math/rand/v2":
			name := "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name != "_" && name != "." {
				randNames[name] = true
			}
		case "net/http":
			name := "http"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name != "_" && name != "." {
				httpNames[name] = true
			}
		}
	}

	// Rule 3: http-server-timeouts (non-test files).
	if len(httpNames) > 0 && !strings.HasSuffix(rel, "_test.go") {
		lintHTTPServers(file, httpNames, addf)
	}

	if inWorkloads || len(randNames) == 0 {
		return findings, nil
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || !randNames[id.Name] || id.Obj != nil { // id.Obj != nil: shadowed local
			return true
		}
		if !randConstructors[sel.Sel.Name] {
			addf(call.Pos(), "rand-global-source",
				"%s.%s uses math/rand's global source — thread a rand.New(rand.NewSource(seed)) generator instead",
				id.Name, sel.Sel.Name)
		}
		return true
	})
	return findings, nil
}

// lintHTTPServers enforces rule 3: no bare http.ListenAndServe helpers, and
// every http.Server literal names WriteTimeout plus a read-side timeout so a
// stalled client cannot pin a connection on a long-running daemon.
func lintHTTPServers(file *ast.File, httpNames map[string]bool, addf func(pos token.Pos, rule, format string, args ...any)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			sel, ok := e.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !httpNames[id.Name] || id.Obj != nil { // id.Obj != nil: shadowed local
				return true
			}
			if sel.Sel.Name == "ListenAndServe" || sel.Sel.Name == "ListenAndServeTLS" {
				addf(e.Pos(), "http-server-timeouts",
					"%s.%s builds a server with no timeouts — construct an http.Server with ReadHeaderTimeout/WriteTimeout",
					id.Name, sel.Sel.Name)
			}
		case *ast.CompositeLit:
			sel, ok := e.Type.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Server" {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !httpNames[id.Name] || id.Obj != nil {
				return true
			}
			var hasRead, hasWrite bool
			for _, elt := range e.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				switch key.Name {
				case "ReadTimeout", "ReadHeaderTimeout":
					hasRead = true
				case "WriteTimeout":
					hasWrite = true
				}
			}
			if !hasRead || !hasWrite {
				addf(e.Pos(), "http-server-timeouts",
					"http.Server literal without both a read-side timeout (ReadTimeout or ReadHeaderTimeout) and WriteTimeout")
			}
		}
		return true
	})
}
