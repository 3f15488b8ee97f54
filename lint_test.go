package scimpich_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUncheckedIsMustOverChecked keeps one algorithm per operation: for
// every X beside an XChecked on the same receiver in the non-test files of
// internal/mpi and internal/osc, the body of X makes exactly two calls —
// must, and either XChecked or the one function XChecked returns — so the
// panicking form is the checked body with its error turned into a panic and
// the two cannot drift apart in cost or in what they wait for.
func TestUncheckedIsMustOverChecked(t *testing.T) {
	pairs := 0
	for _, dir := range []string{"internal/mpi", "internal/osc"} {
		funcs := map[string]*ast.FuncDecl{} // "Recv.Name" -> declaration
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					funcs[funcKey(fd)] = fd
				}
			}
		}
		for key, checked := range funcs {
			plain := funcs[strings.TrimSuffix(key, "Checked")]
			if !strings.HasSuffix(key, "Checked") || plain == nil {
				continue
			}
			pairs++
			ret := returnedCall(checked)
			var calls []string
			ast.Inspect(plain.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					calls = append(calls, callee(call))
				}
				return true
			})
			var other string
			if len(calls) == 2 && calls[0] == "must" {
				other = calls[1]
			} else if len(calls) == 2 && calls[1] == "must" {
				other = calls[0]
			}
			if other == "" || other != checked.Name.Name && other != ret {
				want := checked.Name.Name
				if ret != "" {
					want += " or " + ret
				}
				t.Errorf("%s: %s calls %v, want exactly must and %s", dir, plain.Name.Name, calls, want)
			}
		}
	}
	if pairs < 24 {
		t.Errorf("found %d X/XChecked pairs, want at least 24 (19 in mpi, 5 in osc)", pairs)
	}
}

// funcKey names a declaration by receiver type and name.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return "?." + fd.Name.Name
}

// returnedCall is the callee of a body that is a single return of a single
// call, else "".
func returnedCall(fd *ast.FuncDecl) string {
	if len(fd.Body.List) != 1 {
		return ""
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return ""
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok {
		return ""
	}
	return callee(call)
}

// callee is the name a call expression invokes: f(...) and x.f(...) are
// both "f".
func callee(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return "?"
}
