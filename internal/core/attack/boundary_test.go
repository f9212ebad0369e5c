package attack

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

// groundTruth lists the faas and sandbox selectors that reveal what a real
// tenant cannot see: host identity, true host counts, host boot instants,
// residency (a guest's own included), the materialized fleet and the
// injected-fault counters. Experiments score against them; attack code must
// not read them.
var groundTruth = map[string]bool{
	"HostID":            true,
	"TrueHostCount":     true,
	"BootTime":          true,
	"ResidentCount":     true,
	"MaterializedHosts": true,
	"FaultCounters":     true,
	"RunsOn":            true,
}

// TestObservationBoundary enforces the attacker's real position: no
// non-test file under internal/core may name a ground-truth selector or the
// faas.Host type. The attack sees the platform only through sandbox.Guest
// and the contention primitives (faas.ContentionRounds, faas.ProbeContention).
func TestObservationBoundary(t *testing.T) {
	root := ".." // internal/core
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		faasName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "eaao/internal/faas" {
				faasName = "faas"
				if imp.Name != nil {
					faasName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			pkg, _ := sel.X.(*ast.Ident)
			if groundTruth[name] || (name == "Host" && pkg != nil && pkg.Name == faasName) {
				t.Errorf("%s: attack code reaches faas ground truth via .%s", fset.Position(sel.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 10 {
		t.Fatalf("scanned only %d files under internal/core; wrong root?", files)
	}
}
