package scimpich_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// errorMethods are the receivers whose error-returning methods may not be
// called as bare statements: the MPI calls of internal/mpi, the one-sided
// calls of internal/osc and the remote memory accesses of internal/sci and
// internal/smi return their faults instead of panicking, so a dropped
// result is a failure nobody sees.
var errorMethods = map[string]bool{
	"scimpich/internal/mpi.Comm":              true,
	"scimpich/internal/mpi.Request":           true,
	"scimpich/internal/mpi.PersistentRequest": true,
	"scimpich/internal/osc.Win":               true,
	"scimpich/internal/sci.Mapping":           true,
	"scimpich/internal/sci.BlockWriter":       true,
	"scimpich/internal/sci.DMARequest":        true,
	"scimpich/internal/smi.Mem":               true,
	"scimpich/internal/smi.BlockWriter":       true,
}

// singleSurface are the packages whose non-test code declares no function
// must and no method named must, Try... or ...Checked...: each call has one
// error-returning form under its plain name.
var singleSurface = map[string]bool{
	"scimpich/internal/mpi": true,
	"scimpich/internal/osc": true,
	"scimpich/internal/sci": true,
	"scimpich/internal/smi": true,
}

// TestNoDroppedErrors type-checks every package of the module — library,
// commands, examples and tests — and fails on any call statement (also
// under go and defer) whose callee is an error-returning method of one of
// errorMethods. It also keeps the surface single in the singleSurface
// packages.
func TestNoDroppedErrors(t *testing.T) {
	pkgs := listPackages(t)
	checked := 0
	for _, p := range pkgs {
		if p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") || p.Standard {
			continue
		}
		base := strings.Fields(p.ImportPath)[0]
		if p.ForTest != "" && strings.TrimSuffix(base, "_test") != p.ForTest {
			continue // a dependency recompiled for another package's test
		}
		if p.ForTest == "" && pkgs[p.ImportPath+" ["+p.ImportPath+".test]"] != nil {
			continue // the test variant covers the same files
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		lookup := func(path string) (io.ReadCloser, error) {
			if id, ok := p.ImportMap[path]; ok {
				path = id
			}
			dep := pkgs[path]
			if dep == nil || dep.Export == "" {
				return nil, errors.New("no export data for " + path)
			}
			return os.Open(dep.Export)
		}
		conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
		info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
		if _, err := conf.Check(base, fset, files, info); err != nil {
			t.Fatalf("%s: %v", p.ImportPath, err)
		}
		checked++
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var call *ast.CallExpr
				switch s := n.(type) {
				case *ast.ExprStmt:
					call, _ = s.X.(*ast.CallExpr)
				case *ast.GoStmt:
					call = s.Call
				case *ast.DeferStmt:
					call = s.Call
				}
				if name := droppedError(call, info); name != "" {
					t.Errorf("%s: error of %s dropped", fset.Position(call.Pos()), name)
				}
				return true
			})
		}
		if !singleSurface[base] {
			continue
		}
		for _, f := range files {
			if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				switch {
				case !ok:
				case fd.Recv != nil && (strings.HasPrefix(fd.Name.Name, "Try") || strings.Contains(fd.Name.Name, "Checked")):
					t.Errorf("%s: method %s: the error-returning call keeps the plain name", fset.Position(fd.Pos()), fd.Name.Name)
				case fd.Name.Name == "must":
					t.Errorf("%s: library must: return the error instead", fset.Position(fd.Pos()))
				}
			}
		}
	}
	if checked < 20 {
		t.Errorf("type-checked %d packages, want every package of the module", checked)
	}
}

// droppedError names the method call discards when it is an
// error-returning method of one of errorMethods, else "".
func droppedError(call *ast.CallExpr, info *types.Info) string {
	if call == nil {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return ""
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	res := s.Obj().Type().(*types.Signature).Results()
	if !errorMethods[key] || res.Len() == 0 ||
		!types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
		return ""
	}
	return named.Obj().Name() + "." + sel.Sel.Name
}

// listedPackage is the part of `go list -json` output the lint reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	ForTest    string
	DepOnly    bool
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
}

// listPackages runs `go list -deps -export -test` over the module and keys
// its packages by ID (a test variant is "p [q.test]").
func listPackages(t *testing.T) map[string]*listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-export", "-test", "-json", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := map[string]*listedPackage{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		pkgs[p.ImportPath] = p
	}
	return pkgs
}
