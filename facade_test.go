package eaao

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers keeps the facade from growing back: every
// exported top-level name eaao.go declares must be selected as eaao.<Name>
// by non-test Go under cmd/, by Go under examples/, or by the body of an
// Example function in this directory's test files. Tests inside package
// eaao name the facade without a selector and reach internal packages
// directly, so they do not count as callers.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "eaao.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	declare := func(id *ast.Ident) {
		if id.IsExported() {
			declared = append(declared, id.Name)
		}
	}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declare(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declare(s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declare(n)
					}
				}
			}
		}
	}

	used := map[string]bool{}
	collect := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "eaao" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			if root == "cmd" && strings.HasSuffix(path, "_test.go") {
				return nil
			}
			collect(parse(path))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		for _, decl := range parse(path).Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
				collect(fn.Body)
			}
		}
	}

	var orphans []string
	for _, name := range declared {
		if !used[name] {
			orphans = append(orphans, name)
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		t.Errorf("%d of %d facade names in eaao.go have no caller in cmd/, examples/ or an Example; delete them:\n%s",
			len(orphans), len(declared), strings.Join(orphans, "\n"))
	}
}
