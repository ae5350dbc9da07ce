package hmcsim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// readerAllowlist maps a symbol's key (package path below the module,
// without internal/, then the dotted name) to why it stays unread.
var readerAllowlist = map[string]string{
	"stats.Percentiles":                     "(a) the nearest-rank reference LogHist is property-tested against",
	"scenario.FormatTraffic":                "(a) FuzzRatePhases round-trips the traffic grammar through it, and the cache encoding depends on that",
	"hmc.AddressMap.Encode":                 "(a) the inverse of Decode that FuzzAddressRoundTrip and the device and controller tests build addresses with",
	"sim.Engine.Step":                       "(b) tests and BenchmarkHMCRequest, behind CI's 0-allocs gate, drive the kernel one event at a time",
	"sim.Engine.Pending":                    "(b) tests observe the kernel's queue depth",
	"fault.Injector.Injected":               "(b) tests observe how many transient errors the injector applied",
	"fault.Injector.Outages":                "(b) tests observe how many outage windows the injector entered",
	"runner.CoreBudget.Free":                "(b) the budget tests check through it that no core token leaks",
	"experiments.Figure18Data.SaturationBW": "(b) BenchmarkFigure18 reports the saturation bandwidth it observes",
	"hmc.AccessResult.Loc":                  "(b) TestRequestTimelinePinned and the device tests observe the decoded location",
	"hmc.AccessResult.BankStart":            "(b) TestRequestTimelinePinned pins when the bank starts",
	"mem.Throttle.Level":                    "(c) ROADMAP item 8: the throttle level the run timeline samples",
}

// TestEverySymbolHasAReader type-checks the root module and the
// bench/hmcbench module with the standard library alone and fails on
// any exported function, method, type, const or var, and on any struct
// field, that no non-test code reads. staticcheck's U1000 sees only
// unexported code; this check covers the rest.
//
// A reader is any use in the non-test files of the root module (cmd/
// and examples/ included) or of bench/hmcbench, outside the symbol's
// own declaration: recursion and a type's own method receivers do not
// count. A method is read when any interface in the module, or in an
// imported standard-library package, declares its name. A field is
// read by a selector that is not an assignment target; composite
// literal keys, assignments and increments write it. A struct used as
// a map or sync.Map key, or compared with == or !=, reads every field.
// Tagged fields are left to their encoder.
//
// A symbol with no reader is deleted, or named in readerAllowlist with
// one of three kinds of reason:
//
//	(a) a reference implementation that tests compare against;
//	(b) a hook that tests use to drive or observe live behaviour;
//	(c) an open ROADMAP item that names the reader.
func TestEverySymbolHasAReader(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	rootPkgs := goList(t, root, "./...")
	benchPkgs := goList(t, filepath.Join(root, "bench", "hmcbench"), ".")

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range append(rootPkgs, benchPkgs...) {
		if p.Standard && p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []checkedPackage
	checked := map[string]*types.Package{}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := checked[path]; ok {
				return p, nil
			}
			return stdImporter.Import(path)
		}),
		Error: func(err error) { t.Error(err) },
	}
	check := func(p listedPackage, own bool) {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, _ := conf.Check(p.ImportPath, fset, files, info)
		checked[p.ImportPath] = pkg
		pkgs = append(pkgs, checkedPackage{pkg, files, info, own})
	}
	for _, p := range rootPkgs {
		if !p.Standard {
			check(p, true)
		}
	}
	for _, p := range benchPkgs {
		if p.ImportPath == "hmcsim/bench/hmcbench" {
			check(p, false)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	unread := unreadSymbols(fset, pkgs)
	for _, key := range slices.Sorted(maps.Keys(unread)) {
		if _, ok := readerAllowlist[key]; !ok {
			t.Errorf("%s: %s has no non-test reader: delete it, or add it to readerAllowlist with a reason", unread[key], key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(readerAllowlist)) {
		if _, ok := unread[key]; !ok {
			t.Errorf("readerAllowlist entry %s names no unread symbol: remove the entry", key)
		}
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList lists pattern and its dependencies in dir's module, deps
// first, with the compiler's export data for each.
func goList(t *testing.T, dir, pattern string) []listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", pattern)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	// own marks the root module's packages, whose symbols are checked;
	// every package is a reader.
	own bool
}

// span is a source range in the shared FileSet.
type span struct{ pos, end token.Pos }

// unreadSymbols returns the key and position of every exported symbol
// and struct field of the root module that no non-test code reads.
func unreadSymbols(fset *token.FileSet, pkgs []checkedPackage) map[string]token.Position {
	keys := map[types.Object]string{}
	own := map[types.Object][]span{}
	read := map[types.Object]bool{}
	ifaceMethods := map[string]bool{}

	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())

	var readFields func(t types.Type, seen map[types.Type]bool)
	readFields = func(t types.Type, seen map[types.Type]bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				read[f.Origin()] = true
				readFields(f.Type(), seen)
			}
		case *types.Array:
			readFields(u.Elem(), seen)
		}
	}

	for _, cp := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(cp.pkg.Path(), "hmcsim"), "/")
		rel = strings.TrimPrefix(rel, "internal/")
		if rel == "" {
			rel = "hmcsim"
		}
		for _, imp := range cp.pkg.Imports() {
			if strings.HasPrefix(imp.Path(), "hmcsim") {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		assigned := map[*ast.SelectorExpr]bool{}
		// walk records the struct fields declared under a top-level
		// declaration named owner, and the interfaces, map keys,
		// comparisons and assignment targets it holds.
		walk := func(decl ast.Node, owner string) {
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					if !cp.own {
						break
					}
					st := cp.info.TypeOf(n).(*types.Struct)
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); st.Tag(i) == "" && f.Name() != "_" {
							keys[f] = rel + "." + owner + "." + f.Name()
						}
					}
				case *ast.InterfaceType:
					addIface(cp.info.TypeOf(n))
				case *ast.MapType:
					readFields(cp.info.TypeOf(n.Key), map[types.Type]bool{})
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readFields(cp.info.TypeOf(n.X), map[types.Type]bool{})
					}
				case *ast.CallExpr:
					// A sync.Map hashes and compares its keys like a map.
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 && isSyncMap(cp.info.Selections[sel]) {
						readFields(cp.info.TypeOf(n.Args[0]), map[types.Type]bool{})
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							assigned[sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						assigned[sel] = true
					}
				}
				return true
			})
		}
		// declare records obj's own declaration and, for an exported
		// symbol of the root module, its key.
		declare := func(obj types.Object, decl ast.Node, name string) {
			own[obj] = append(own[obj], span{decl.Pos(), decl.End()})
			if cp.own && obj.Exported() {
				keys[obj] = rel + "." + name
			}
		}
		for _, f := range cp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						recv := recvTypeName(cp.info, d.Recv.List[0].Type)
						own[recv] = append(own[recv], span{d.Recv.Pos(), d.Recv.End()})
						name = recv.Name() + "." + name
					}
					declare(cp.info.Defs[d.Name], d, name)
					walk(d, name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(cp.info.Defs[s.Name], s, s.Name.Name)
							walk(s, s.Name.Name)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declare(cp.info.Defs[n], s, n.Name)
							}
							walk(s, s.Names[0].Name)
						}
					}
				}
			}
		}

		for id, obj := range cp.info.Uses {
			obj = origin(obj)
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				continue // fields are read through selections
			}
			if !within(own[obj], id.Pos()) {
				read[obj] = true
			}
		}
		for sel, s := range cp.info.Selections {
			// Embedded fields the selector passes through are read.
			t := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				f := t.Underlying().(*types.Struct).Field(i)
				read[f.Origin()] = true
				t = f.Type()
			}
			if s.Kind() == types.FieldVal && !assigned[sel] {
				read[origin(s.Obj())] = true
			}
		}
	}

	unread := map[string]token.Position{}
	for obj, key := range keys {
		if read[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && ifaceMethods[fn.Name()] {
			continue
		}
		unread[key] = fset.Position(obj.Pos())
	}
	return unread
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}

func isSyncMap(s *types.Selection) bool {
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "Map"
}

// recvTypeName returns the named type of a method receiver expression.
func recvTypeName(info *types.Info, x ast.Expr) types.Object {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return info.Uses[e]
		default:
			panic(fmt.Sprintf("unexpected receiver %T", x))
		}
	}
}

func within(spans []span, p token.Pos) bool {
	for _, s := range spans {
		if s.pos <= p && p < s.end {
			return true
		}
	}
	return false
}
