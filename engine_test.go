package corgipile

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneTrainEngine pins the one engine: every TRAIN in the module is
// executor.BuildSGDPlan, so no non-test file outside internal/core may use
// core.Run. core.Run stays only as the core package's test driver and as the
// benchmark ladder's rung (benchmark/ is its own module and is not walked).
func TestOneTrainEngine(t *testing.T) {
	fset := token.NewFileSet()
	parsed := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" ||
				path == "benchmark" || path == filepath.Join("internal", "core")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed++
		core := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "corgipile/internal/core" {
				core = "core"
				if imp.Name != nil {
					core = imp.Name.Name
				}
			}
		}
		if core == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == core {
					t.Errorf("%s: core.Run outside internal/core; build executor.BuildSGDPlan instead",
						fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 50 {
		t.Fatalf("parsed %d non-test files; the walk missed the module", parsed)
	}
}
