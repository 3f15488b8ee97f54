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
	builtParts       = "another package's tests build or inspect a part of a world through it: a bare region, node count, residency, an actor's events"
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

// maxDocBytes caps every Markdown file of the repository. The largest,
// CHANGES.md, is under 300 KiB; a file past a mebibyte is a broken edit
// (a replace gone wrong once grew CHANGES.md to 185 MB), not prose.
const maxDocBytes = 1 << 20

// TestDocsUnderOneMiB fails on any *.md file of the repository, outside
// hidden and build directories, larger than maxDocBytes.
func TestDocsUnderOneMiB(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".md" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if info.Size() > maxDocBytes {
			t.Errorf("%s is %d bytes, over the %d-byte cap", path, info.Size(), maxDocBytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// schedCallers lists, per peer-schedule function of internal/mpi, the
// functions of its library code that may call it, each with its reason.
// Every collective whose order the prior walks runs as a plan on one step
// executor (runColl), which reaches a schedule only through collSched.peers;
// a new caller is a new hand-written collective loop.
var schedCallers = map[string]map[string]string{
	"ringPeers":    {"collSched.peers": "the schedule the executor and the prior walk"},
	"recDblPeer":   {"collSched.peers": "the schedule the executor and the prior walk"},
	"binomialPeer": {"collSched.peers": "the schedule the executor and the prior walk"},
	"pairwisePeers": {
		"collSched.peers":    "the schedule the executor and the prior walk",
		"Comm.osExchange":    "the one-sided window exchange: all of a member's deposits run ahead of its takes, which no plan's step holds",
		"Comm.modelExchange": "the window exchange's prior, which walk's recurrence cannot hold for the same reason",
	},
	"ringSendBlock": {
		"collCall.step":       "the ring allreduce's block rule",
		"buildTorusWorld":     "the torus runtime runs the same rotation without processes: each node's first block",
		"torusNode.beginStep": "the torus runtime's step: the block a node forwards",
	},
}

// TestOneCollectiveExecutor fails on a call of a peer-schedule function of
// internal/mpi's library code from outside its schedCallers entry.
func TestOneCollectiveExecutor(t *testing.T) {
	var mpi *checkedPackage
	for _, p := range typeCheck(t, ".") {
		if p.path == "scimpich/internal/mpi" {
			mpi = p
		}
	}
	if mpi == nil {
		t.Fatal("type-checked no package scimpich/internal/mpi")
	}
	calls := map[string]int{}
	for _, f := range mpi.libraryFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller := fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				caller = recv.(*ast.Ident).Name + "." + caller
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := mpi.info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != mpi.path {
					return true
				}
				allowed, sched := schedCallers[fn.Name()]
				if !sched {
					return true
				}
				calls[fn.Name()]++
				if _, ok := allowed[caller]; !ok {
					t.Errorf("%s: %s calls %s: a collective loop outside the step executor (runColl); run it as a plan, or name it in schedCallers with its reason",
						mpi.fset.Position(call.Pos()), caller, fn.Name())
				}
				return true
			})
		}
	}
	for name := range schedCallers {
		if calls[name] == 0 {
			t.Errorf("no library code calls %s: the lint has lost track of it", name)
		}
	}
}

// oneRecord are the packages whose library code keeps one record per fact:
// an interval is a trace span and a count is a stats field, so no registry
// histogram re-times what a span already holds.
var oneRecord = []string{"scimpich/internal/mpi", "scimpich/internal/osc"}

// TestOneRecordPerInterval fails on a oneRecord package's library code
// that makes a registry histogram ((*obs.Registry).Histogram) or declares
// a variable, field, parameter or result whose type spells *obs.Histogram
// (in an array, slice, map or func type too).
func TestOneRecordPerInterval(t *testing.T) {
	seen := 0
	for _, p := range typeCheck(t, ".") {
		if !slices.Contains(oneRecord, p.path) {
			continue
		}
		seen++
		for _, f := range p.libraryFiles() {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					s := p.info.Selections[n]
					if s == nil || s.Kind() != types.MethodVal {
						return true
					}
					if fn := s.Obj(); fn.Pkg() != nil && fn.Pkg().Path() == "scimpich/internal/obs" && fn.Name() == "Histogram" {
						t.Errorf("%s: registry histogram made: time the interval with a trace span", p.fset.Position(n.Pos()))
					}
				case *ast.Ident:
					if obj := p.info.Defs[n]; obj != nil && strings.Contains(types.TypeString(obj.Type(), nil), "*scimpich/internal/obs.Histogram") {
						t.Errorf("%s: %s holds an *obs.Histogram: time the interval with a trace span", p.fset.Position(n.Pos()), n.Name)
					}
				}
				return true
			})
		}
	}
	if seen != len(oneRecord) {
		t.Errorf("type-checked %d of the %d oneRecord packages", seen, len(oneRecord))
	}
}

// TestOneSyncWait fails on a call of (*sim.Proc).Recv or RecvTimeout in
// internal/osc's library code outside Win.await: Fence, Start and Wait
// wait for their peers' notifications there, bounded by the world's
// one-sided bound (mpi.World.SyncTimeout), and nowhere else.
func TestOneSyncWait(t *testing.T) {
	var osc *checkedPackage
	for _, p := range typeCheck(t, ".") {
		if p.path == "scimpich/internal/osc" {
			osc = p
		}
	}
	if osc == nil {
		t.Fatal("type-checked no package scimpich/internal/osc")
	}
	waits := 0
	for _, f := range osc.libraryFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := osc.info.Selections[sel]
				if s == nil || s.Kind() != types.MethodVal {
					return true
				}
				fn := s.Obj()
				if types.TypeString(s.Recv(), nil) != "*scimpich/internal/sim.Proc" ||
					(fn.Name() != "Recv" && fn.Name() != "RecvTimeout") {
					return true
				}
				if fd.Name.Name == "await" && fd.Recv != nil {
					waits++
					return true
				}
				t.Errorf("%s: %s calls (*sim.Proc).%s: a synchronization wait outside Win.await", osc.fset.Position(sel.Pos()), fd.Name.Name, fn.Name())
				return true
			})
		}
	}
	if waits == 0 {
		t.Error("Win.await calls neither Recv nor RecvTimeout: the lint has lost track of the wait")
	}
}

// lossRuleHome are the packages that judge whether a rank is lost: sci
// reports a dead node, and mpi turns that and a shrink's revocations into
// the one question every other layer asks (Comm.Lost).
var lossRuleHome = map[string]bool{"scimpich/internal/mpi": true, "scimpich/internal/sci": true}

// TestOneLossRule fails on library code outside lossRuleHome that calls
// (*mpi.World).NodeAlive or builds an sci.ErrConnectionLost,
// mpi.RevokedRankError or mpi.CommRevokedError composite literal: such code
// judges a loss itself instead of asking mpi, so it can drift from mpi's
// rule and leaves the failure detector uninformed.
func TestOneLossRule(t *testing.T) {
	seen := 0
	for _, p := range typeCheck(t, ".") {
		if lossRuleHome[p.path] {
			continue
		}
		seen++
		for _, f := range p.libraryFiles() {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if s := p.info.Selections[n]; s != nil && s.Obj().Name() == "NodeAlive" &&
						types.TypeString(s.Recv(), nil) == "*scimpich/internal/mpi.World" {
						t.Errorf("%s: calls (*mpi.World).NodeAlive: ask Comm.Lost", p.fset.Position(n.Pos()))
					}
				case *ast.CompositeLit:
					id, ok := n.Type.(*ast.Ident)
					if sel, isSel := n.Type.(*ast.SelectorExpr); isSel {
						id, ok = sel.Sel, true
					}
					if !ok || p.info.Uses[id] == nil {
						return true
					}
					switch name := types.TypeString(p.info.Uses[id].Type(), nil); name {
					case "scimpich/internal/sci.ErrConnectionLost", "scimpich/internal/mpi.RevokedRankError",
						"scimpich/internal/mpi.CommRevokedError":
						t.Errorf("%s: builds a %s: ask Comm.Lost", p.fset.Position(n.Pos()), name)
					}
				}
				return true
			})
		}
	}
	if seen == 0 {
		t.Error("type-checked no package outside lossRuleHome")
	}
}

// retryRuleHome are the packages that decide whether a failed transfer is
// tried again: sci retries its transfer checks, and mpi's
// Comm.RetryTransfer is the rule every other layer runs its transfers by.
var retryRuleHome = map[string]bool{"scimpich/internal/mpi": true, "scimpich/internal/sci": true}

// TestOneRetryRule fails on library code outside retryRuleHome that calls
// (*fault.Error).Retryable: such code keeps a retry policy of its own
// (attempts, backoff, counts, flight records) beside mpi's, and the two
// drift apart.
func TestOneRetryRule(t *testing.T) {
	seen := 0
	for _, p := range typeCheck(t, ".") {
		if retryRuleHome[p.path] {
			continue
		}
		seen++
		for _, f := range p.libraryFiles() {
			ast.Inspect(f, func(n ast.Node) bool {
				if n, ok := n.(*ast.SelectorExpr); ok {
					if s := p.info.Selections[n]; s != nil && s.Obj().Name() == "Retryable" &&
						types.TypeString(s.Recv(), nil) == "*scimpich/internal/fault.Error" {
						t.Errorf("%s: calls (*fault.Error).Retryable: retry through mpi.Comm.RetryTransfer", p.fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
	if seen == 0 {
		t.Error("type-checked no package outside retryRuleHome")
	}
}

// TestOneExpiryRule fails on library code that mints the error of a wait
// that ran out by itself: a fault.Error composite literal of kind
// fault.Timeout anywhere but mpi's one epilogue, (*mpi.Comm).WatchdogExpired,
// or an error type named *Timeout outside internal/fault. Such code counts
// (or forgets to count) the expiry on its own and answers a peer's loss with
// a timeout of its own, so the same crash ends in two errors.
func TestOneExpiryRule(t *testing.T) {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	epilogues := 0
	for _, p := range typeCheck(t, ".") {
		for _, f := range p.libraryFiles() {
			for _, d := range f.Decls {
				fd, _ := d.(*ast.FuncDecl)
				epilogue := fd != nil && fd.Recv != nil && fd.Name.Name == "WatchdogExpired" && p.path == "scimpich/internal/mpi"
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.TypeSpec:
						typ := p.info.Defs[n.Name].Type()
						if strings.HasSuffix(n.Name.Name, "Timeout") && p.path != "scimpich/internal/fault" &&
							(types.Implements(typ, errType) || types.Implements(types.NewPointer(typ), errType)) {
							t.Errorf("%s: declares the error type %s: return the error of mpi.Comm.WatchdogExpired", p.fset.Position(n.Pos()), n.Name.Name)
						}
					case *ast.CompositeLit:
						if tn, ok := p.info.Uses[nameOf(n.Type)].(*types.TypeName); !ok || types.TypeString(tn.Type(), nil) != "scimpich/internal/fault.Error" {
							return true
						}
						for _, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								e = kv.Value
							}
							if c, ok := p.info.Uses[nameOf(e)].(*types.Const); !ok || c.Name() != "Timeout" || c.Pkg().Path() != "scimpich/internal/fault" {
								continue
							}
							if epilogue {
								epilogues++
							} else {
								t.Errorf("%s: builds a fault.Error of kind Timeout: return the error of mpi.Comm.WatchdogExpired", p.fset.Position(n.Pos()))
							}
						}
					}
					return true
				})
			}
		}
	}
	if epilogues != 1 {
		t.Errorf("(*mpi.Comm).WatchdogExpired builds %d fault.Errors of kind Timeout, want 1: the lint has lost track of the epilogue", epilogues)
	}
}

// nameOf is the identifier that names e, an identifier or a qualified
// identifier (pkg.Name); nil for any other expression.
func nameOf(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// panicSites is the number of calls of the builtin panic in the module's
// library Go (benchmark/ is a module of its own). A change that adds or
// removes one updates it in the same change, so each is a decision that
// review sees; ROADMAP item 6(c) tracks which of them a facade call can
// reach.
const panicSites = 95

// TestPanicSites pins panicSites.
func TestPanicSites(t *testing.T) {
	var sites []string
	for _, p := range typeCheck(t, ".") {
		for _, f := range p.libraryFiles() {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						if b, ok := p.info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
							sites = append(sites, p.fset.Position(call.Pos()).String())
						}
					}
				}
				return true
			})
		}
	}
	if len(sites) != panicSites {
		t.Errorf("%d calls of panic in library Go, want panicSites = %d: update it with the change that adds or removes one\n  %s",
			len(sites), panicSites, strings.Join(sites, "\n  "))
	}
}
