package mflow

// The dead-API gate: every exported identifier declared under internal/
// must be referenced by some non-test file of the main module or of the
// benchmark module. Packages are selected with go/build (so build tags
// hold), parsed with go/parser and checked with go/types; the standard
// library is type-checked from source. Only the standard library is used.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllow lists exported identifiers that only tests reference but
// that are kept as production API, each with its reason.
var deadAPIAllow = map[string]string{
	"causal.RenderBreakdown": "the text format the breakdown goldens in internal/overlay pin",
	"pcap.Read":              "reads back the pcap goldens and captures in overlay and mflowsim tests",
	"sim.Scheduler.Run":      "drains the scheduler in the engine tests of every package",
	"sim.Scheduler.Stop":     "the engine and differential fuzz tests pin RunUntil's stop semantics",
	"skb.Pool.Free":          "overlay's pool test proves recycled SKBs are re-issued during a run",
}

func TestDeadAPI(t *testing.T) {
	found, err := findDeadAPI(".", "mflow")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range found {
		seen[f.name] = true
		if _, ok := deadAPIAllow[f.name]; !ok {
			t.Errorf("%s: exported, but no non-test file references it", f)
		}
	}
	for name, reason := range deadAPIAllow {
		if !seen[name] {
			t.Errorf("allowlist entry %s (%s) is referenced or gone; remove it", name, reason)
		}
	}
}

// TestDeadAPIFinder runs the finder over a small module with known
// answers, so the gate cannot pass by finding nothing, and over one that
// does not type-check, which must fail.
func TestDeadAPIFinder(t *testing.T) {
	found, err := findDeadAPI(filepath.Join("testdata", "deadapi"), "deadmod")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.String())
	}
	want := []string{
		"internal/lib/lib.go:10 lib.Dead",
		"internal/lib/lib.go:15 lib.Box.Unread",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if _, err := findDeadAPI(filepath.Join("testdata", "deadapibad"), "badmod"); err == nil {
		t.Fatal("a module that does not type-check passed the finder")
	}
}

// deadAPI is one finding: where it is declared, relative to the module
// root, and its pkg.[Recv.]Name.
type deadAPI struct {
	file string
	line int
	name string
}

func (d deadAPI) String() string { return fmt.Sprintf("%s:%d %s", d.file, d.line, d.name) }

// findDeadAPI loads every package under root (module path module; testdata
// and dot directories skipped) and returns the exported identifiers
// declared under root/internal that no loaded file references, sorted by
// position. A nested module must be named after its directory, as
// benchmark/ is mflow/benchmark. Methods that satisfy an interface are
// exempt; a reference from a method receiver does not count. Any parse or
// type-check error is returned.
func findDeadAPI(root, module string) ([]deadAPI, error) {
	l := &apiLoader{
		root: root, module: module,
		fset: token.NewFileSet(),
		pkgs: map[string]*apiPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		var noGo *build.NoGoError
		if _, err := l.load(path); err != nil && !errors.As(err, &noGo) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l.dead(), nil
}

type apiPkg struct {
	rel   string // directory relative to the module root
	types *types.Package
	files []*ast.File
	info  *types.Info
}

type apiLoader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*apiPkg
	order        []*apiPkg
}

// Import resolves module packages from the tree and the rest from the
// standard library's source.
func (l *apiLoader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses and type-checks the module package at path, once.
func (l *apiLoader) load(path string) (*apiPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	bp, err := build.Default.ImportDir(filepath.Join(l.root, filepath.FromSlash(rel)), 0)
	if err != nil {
		return nil, err
	}
	p := &apiPkg{rel: rel, info: &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	var errs []error
	conf := types.Config{Importer: l, Error: func(err error) { errs = append(errs, err) }}
	p.types, _ = conf.Check(path, l.fset, p.files, p.info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(errs...))
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// dead lists the unreferenced exported declarations under internal/.
func (l *apiLoader) dead() []deadAPI {
	used := map[types.Object]bool{}
	for _, p := range l.order {
		recv := map[*ast.Ident]bool{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.info.Uses {
			if !recv[id] {
				used[origin(obj)] = true
			}
		}
	}
	ifaces := l.interfaces()
	var out []deadAPI
	report := func(p *apiPkg, obj types.Object, name string) {
		if !obj.Exported() || used[obj] {
			return
		}
		pos := l.fset.Position(obj.Pos())
		rel, err := filepath.Rel(l.root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		out = append(out, deadAPI{filepath.ToSlash(rel), pos.Line, p.types.Name() + "." + name})
	}
	for _, p := range l.order {
		if p.rel != "internal" && !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			report(p, obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !satisfiesInterface(named, m.Name(), ifaces) {
					report(p, m, name+"."+m.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); !f.Embedded() {
						report(p, f, name+"."+f.Name())
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// interfaces collects every method-set interface that the loaded packages
// and the standard-library packages they import declare or spell out.
func (l *apiLoader) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.order {
		walk(p.types)
		for _, tv := range p.info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				add(tv.Type)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether T or *T implements an interface that
// has a method called name. A generic T is instantiated with its own type
// parameters.
func satisfiesInterface(named *types.Named, name string, ifaces []*types.Interface) bool {
	var t types.Type = named
	if tps := named.TypeParams(); tps.Len() > 0 {
		args := make([]types.Type, tps.Len())
		for i := range args {
			args[i] = tps.At(i)
		}
		inst, err := types.Instantiate(nil, named, args, false)
		if err != nil {
			return false
		}
		t = inst
	}
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(t, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
