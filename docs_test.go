package mpu_test

import (
	"bufio"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The prose docs name code and metrics; these tests hold them to the tree.
// Text under a heading containing "Removed" is history and is skipped.

// docFiles are the documents held to the code: docs/*.md, README.md and
// DESIGN.md.
func docFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, "README.md", "DESIGN.md")
}

// docLine is one line of a document outside fenced code and outside any
// section whose heading contains "Removed".
type docLine struct {
	file string
	n    int
	text string
}

func currentDocLines(t *testing.T, file string) []docLine {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []docLine
	fenced := false
	removed := 0 // level of the enclosing "Removed" heading, 0 outside one
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if level := len(line) - len(strings.TrimLeft(line, "#")); level > 0 && strings.HasPrefix(line[level:], " ") {
			switch {
			case strings.Contains(line, "Removed"):
				if removed == 0 || level <= removed {
					removed = level
				}
				continue
			case removed > 0 && level <= removed:
				removed = 0
			}
		}
		if removed == 0 {
			out = append(out, docLine{file, n, line})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// decls maps each of the module's package names to its declarations: a
// top-level name maps to the fields and methods of that name (nil when it
// has none). A method's name is a declaration of its package too, so
// `vrf.WriteReg` may name (*vrf.VRF).WriteReg. Test files count, so a doc may
// name a test; a name declared by two packages of the same name belongs to
// both.
func decls(t *testing.T) map[string]map[string]map[string]bool {
	t.Helper()
	pkgs := map[string]map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkg == "main" {
			return nil
		}
		names := pkgs[pkg]
		if names == nil {
			names = map[string]map[string]bool{}
			pkgs[pkg] = names
		}
		declare := func(name string) {
			if _, ok := names[name]; !ok {
				names[name] = nil
			}
		}
		member := func(typ, name string) {
			if names[typ] == nil {
				names[typ] = map[string]bool{}
			}
			names[typ][name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				declare(decl.Name.Name)
				if decl.Recv == nil {
					continue
				}
				typ := decl.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					member(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name.Name)
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									member(spec.Name.Name, id.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

var (
	codeSpan = regexp.MustCompile("`[^`]+`")
	// pkg.Ident with an optional .Member, not inside a longer dotted or
	// slashed path.
	qualified = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	family    = regexp.MustCompile(`\b(?:mpud|mpurouter)_[a-z0-9_]*\*?`)
)

// TestDocsNameDeclarations: every backticked pkg.Ident in the docs whose pkg
// is a package of this module names a declaration of that package, and a
// pkg.Type.Member names a field or method of that struct type.
func TestDocsNameDeclarations(t *testing.T) {
	pkgs := decls(t)
	// A bench metric (`machine.run_ms`, `serve.restores`) is no code name.
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	metric := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metric[m.Name] = true
	}
	for _, file := range docFiles(t) {
		for _, l := range currentDocLines(t, file) {
			for _, span := range codeSpan.FindAllString(l.text, -1) {
				for _, m := range qualified.FindAllStringSubmatch(span, -1) {
					pkg, name, sel := m[1], m[2], m[3]
					names, ok := pkgs[pkg]
					// Not ours, a file name, a bench metric or a glob of them.
					if !ok || name == "go" || metric[pkg+"."+name] || strings.HasSuffix(name, "_") {
						continue
					}
					members, declared := names[name]
					switch {
					case !declared:
						t.Errorf("%s:%d: %s names %s.%s, which package %s does not declare", l.file, l.n, span, pkg, name, pkg)
					case sel != "" && members != nil && !members[sel]:
						t.Errorf("%s:%d: %s names %s.%s.%s, which is no field or method of %s.%s", l.file, l.n, span, pkg, name, sel, pkg, name)
					}
				}
			}
		}
	}
}

// TestDocsNameExportedFamilies: every mpud_* and mpurouter_* family the docs
// name is in a /metrics golden; a name ending in _ or * is a prefix of one.
func TestDocsNameExportedFamilies(t *testing.T) {
	exported := map[string]bool{}
	for _, golden := range []string{"internal/serve/testdata/metrics.golden", "internal/router/testdata/metrics.golden"} {
		b, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range family.FindAllString(string(b), -1) {
			exported[name] = true
		}
	}
	for _, file := range docFiles(t) {
		for _, l := range currentDocLines(t, file) {
			for _, name := range family.FindAllString(l.text, -1) {
				if exported[name] {
					continue
				}
				if prefix := strings.TrimSuffix(name, "*"); strings.HasSuffix(prefix, "_") {
					found := false
					for e := range exported {
						found = found || strings.HasPrefix(e, prefix)
					}
					if found {
						continue
					}
				}
				t.Errorf("%s:%d: %s is in no /metrics golden", l.file, l.n, name)
			}
		}
	}
}
