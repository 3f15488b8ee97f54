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
	"slices"
	"strings"
	"testing"
)

// errorMethods are the receivers whose error-returning methods may not be
// called as bare statements: the MPI calls of internal/mpi, the one-sided
// calls of internal/osc and the remote memory accesses of internal/sci and
// internal/smi return their faults instead of panicking, so a dropped
// result is a failure nobody sees.
var errorMethods = map[string]bool{
	"scimpich/internal/mpi.Comm":        true,
	"scimpich/internal/mpi.Request":     true,
	"scimpich/internal/osc.Win":         true,
	"scimpich/internal/sci.Mapping":     true,
	"scimpich/internal/sci.BlockWriter": true,
	"scimpich/internal/sci.DMARequest":  true,
	"scimpich/internal/smi.Mem":         true,
	"scimpich/internal/smi.BlockWriter": true,
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
	pkgs := typeCheck(t, ".")
	for _, p := range pkgs {
		for _, f := range p.files {
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
				if name := droppedError(call, p.info); name != "" {
					t.Errorf("%s: error of %s dropped", p.fset.Position(call.Pos()), name)
				}
				return true
			})
		}
		if !singleSurface[p.path] {
			continue
		}
		for _, f := range p.libraryFiles() {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				switch {
				case !ok:
				case fd.Recv != nil && (strings.HasPrefix(fd.Name.Name, "Try") || strings.Contains(fd.Name.Name, "Checked")):
					t.Errorf("%s: method %s: the error-returning call keeps the plain name", p.fset.Position(fd.Pos()), fd.Name.Name)
				case fd.Name.Name == "must":
					t.Errorf("%s: library must: return the error instead", p.fset.Position(fd.Pos()))
				}
			}
		}
	}
	if len(pkgs) < 20 {
		t.Errorf("type-checked %d packages, want every package of the module", len(pkgs))
	}
}

// The reasons an exported name of an internal package stays with only
// tests reaching it. A name that only its own package's tests need is not
// one of them: those tests read the field or call what production calls.
const (
	postsOverlapping = "the protocol and schedule tests post overlapping operations with it"
	structStore      = "a struct store that the stats parity test reads (docs/OBSERVABILITY.md, one store)"
	planBuilder      = "a fault-plan builder: the fault and recovery tests of sci, osc and mpi compose plans from it (docs/FAULTS.md)"
	allocHarness     = "the allocation-window harness, test support that the allocation budgets of six packages measure through"
	testHook         = "a hook for tests to observe a run: a leak check's coroutine count, a failure dump handed over in process"
	paperReference   = "the paper's own mechanism or machine, kept as the reference a test checks a claim against"
	shardedParked    = "the sharded engine's lookahead and shards, which wait for its parked deletion (ROADMAP, Parked)"
	builtParts       = "another package's tests build or inspect a part of a world through it: a bare region, link names, node count, residency, an actor's events"
)

// reachedOnlyByTests are the exported names of internal packages that only
// tests reach, each with the reason it stays.
var reachedOnlyByTests = map[string]string{
	"mpi.Comm.Isend":   postsOverlapping,
	"mpi.Comm.Irecv":   postsOverlapping,
	"mpi.Comm.Waitall": postsOverlapping,

	"mpi.World.Fabric":        structStore,
	"mpi.World.WorldStats":    structStore,
	"mpi.World.PackStats":     structStore,
	"flow.Network.Stats":      structStore,
	"sci.Interconnect.Faults": structStore,

	"fault.Plan.RestoreNode":   planBuilder,
	"fault.Plan.DisturbLink":   planBuilder,
	"fault.Plan.FailImports":   planBuilder,
	"fault.Plan.WithRetries":   planBuilder,
	"fault.Plan.WithDMAErrors": planBuilder,

	"allocwin.New":            allocHarness,
	"allocwin.RaceEnabled":    allocHarness,
	"allocwin.Window.Open":    allocHarness,
	"allocwin.Window.Close":   allocHarness,
	"allocwin.Window.Objects": allocHarness,
	"allocwin.Window.Bytes":   allocHarness,

	"sim.IdleCoroutines":              testHook,
	"obs/flight.Recorder.SetDumpSink": testHook,

	"datatype.Flat.FindPosition": paperReference,
	"memmodel.UltraSparcII":      paperReference,

	"sim.ShardedEngine.Shard":        shardedParked,
	"torus.Topology.CrossShardLinks": shardedParked,
	"flow.MinLatency":                shardedParked,

	"flow.Link.Name":            builtParts,
	"sci.Node.Links":            builtParts,
	"shmem.Bus.Link":            builtParts,
	"shmem.Bus.Alloc":           builtParts,
	"sci.Interconnect.Nodes":    builtParts,
	"memmodel.Backing.Resident": builtParts,
	"obs/flight.Ring.Events":    builtParts,
}

// TestSurfaceIsReached fails on an exported package-level name — function,
// method, type, constant or variable — declared in the non-test files of a
// package under scimpich/internal/ that nothing reaches but tests: a
// reference must come from the non-test files of some package of the
// module (its own included, examples and commands too) or from the
// benchmark harness, a module of its own whose every file counts. A call
// through an interface method reaches every method that implements that
// interface. What stays anyway is in reachedOnlyByTests.
func TestSurfaceIsReached(t *testing.T) {
	pkgs := typeCheck(t, ".")
	harness := typeCheck(t, "benchmark")
	if len(harness) == 0 {
		t.Fatal("type-checked no package of the benchmark harness")
	}
	reached := map[string]bool{}
	// The interfaces called through, by their method sets; fmt calls
	// String and Error through fmt.Stringer and error.
	ifaces := map[string][]string{
		"String()(string)": {"String()(string)"},
		"Error()(string)":  {"Error()(string)"},
	}
	use := func(p *checkedPackage, files []*ast.File) {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				switch obj := p.info.Uses[id].(type) {
				case *types.Func:
					fn := obj.Origin()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ms := methodSet(recv.Type())
						ifaces[strings.Join(ms, ";")] = ms
						return true
					}
					reached[funcName(fn)] = true
				case *types.Var, *types.Const, *types.TypeName:
					if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						reached[objName(obj)] = true
					}
				}
				return true
			})
		}
	}
	for _, p := range pkgs {
		use(p, p.libraryFiles())
	}
	for _, p := range harness {
		use(p, p.files)
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		have := map[string]bool{}
		for _, m := range methodSet(recv.Type()) {
			have[m] = true
		}
		me := methodSig(fn)
		for _, ms := range ifaces {
			if slices.Contains(ms, me) && !slices.ContainsFunc(ms, func(m string) bool { return !have[m] }) {
				return true
			}
		}
		return false
	}
	surface, packages := 0, 0
	listed := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "scimpich/internal/") {
			continue
		}
		packages++
		check := func(id *ast.Ident, name string, isReached bool) {
			surface++
			short := strings.TrimPrefix(name, "scimpich/internal/")
			_, allowed := reachedOnlyByTests[short]
			listed[short] = allowed
			switch {
			case isReached:
				if allowed {
					t.Errorf("%s: %s is reached: take it off reachedOnlyByTests", p.fset.Position(id.Pos()), short)
				}
			case !allowed:
				t.Errorf("%s: %s is reached only by tests: delete it, or say in reachedOnlyByTests why it stays", p.fset.Position(id.Pos()), short)
			}
		}
		for _, f := range p.libraryFiles() {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() {
						fn := p.info.Defs[d.Name].(*types.Func)
						check(d.Name, funcName(fn), reached[funcName(fn)] || implements(fn))
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var ids []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							ids = s.Names
						}
						for _, id := range ids {
							if id.IsExported() {
								name := objName(p.info.Defs[id])
								check(id, name, reached[name])
							}
						}
					}
				}
			}
		}
	}
	for name := range reachedOnlyByTests {
		if !listed[name] {
			t.Errorf("%s is on reachedOnlyByTests but names no exported declaration: take it off", name)
		}
	}
	if surface < 500 || packages < 20 {
		t.Errorf("found %d exported names in %d internal packages, want the whole surface", surface, packages)
	}
}

// objName names a package-level object by its package path and its name:
// "scimpich/internal/sim.Engine".
func objName(obj types.Object) string {
	return obj.Pkg().Path() + "." + obj.Name()
}

// funcName names fn by its package path, its receiver's type name for a
// method, and its own name: "scimpich/internal/mpi.Comm.Send".
func funcName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() == nil {
		return name
	}
	return fn.Pkg().Path() + "." + name
}

// methodSet lists the methods of t, or of *t for a type that is not an
// interface, as methodSig writes them.
func methodSet(t types.Type) []string {
	if !types.IsInterface(t) {
		if _, ok := t.(*types.Pointer); !ok {
			t = types.NewPointer(t)
		}
	}
	ms := types.NewMethodSet(t)
	out := make([]string, ms.Len())
	for i := range out {
		out[i] = methodSig(ms.At(i).Obj().(*types.Func))
	}
	slices.Sort(out)
	return out
}

// methodSig writes a method's name and parameter and result types with full
// package paths, so that methods from different type-checks compare equal.
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	tuple := func(tup *types.Tuple) string {
		parts := make([]string, tup.Len())
		for i := range parts {
			parts[i] = types.TypeString(tup.At(i).Type(), qual)
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	variadic := ""
	if sig.Variadic() {
		variadic = "..."
	}
	return fn.Name() + tuple(sig.Params()) + variadic + tuple(sig.Results())
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

// checkedPackage is one package of a module, parsed and type-checked
// against the export data of its dependencies.
type checkedPackage struct {
	path  string // import path; the files of a test variant come with it
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
}

// libraryFiles are p's files that are not tests.
func (p *checkedPackage) libraryFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.files {
		if !strings.HasSuffix(p.fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// checked holds typeCheck's result by directory, so that the lints of one
// test run share one type-check of each module.
var checked = map[string][]*checkedPackage{}

// typeCheck type-checks every package of the module in dir, each once: a
// package with tests in its test variant, which covers the same files and
// its tests as well.
func typeCheck(t *testing.T, dir string) []*checkedPackage {
	if out, ok := checked[dir]; ok {
		return out
	}
	pkgs := listPackages(t, dir)
	var out []*checkedPackage
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
		info := &types.Info{
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
		}
		if _, err := conf.Check(base, fset, files, info); err != nil {
			t.Fatalf("%s: %v", p.ImportPath, err)
		}
		out = append(out, &checkedPackage{path: base, fset: fset, files: files, info: info})
	}
	checked[dir] = out
	return out
}

// listPackages runs `go list -deps -export -test` over the module in dir
// and keys its packages by ID (a test variant is "p [q.test]").
func listPackages(t *testing.T, dir string) map[string]*listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-export", "-test", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
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
