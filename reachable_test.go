package corgipile

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

// reachAllow lists declarations under internal/ that stay without a non-test
// caller, keyed pkg.Name or pkg.Type.Member; an entry naming a type keeps its
// methods and fields too. Each entry needs a reason. TestReachable fails on an
// entry that names nothing or that a non-test caller already keeps.
var reachAllow = map[string]string{
	"iosim.Trace": "the per-access recorder behind Device.WithTrace; iosim's and shuffle's " +
		"tests read it to prove No Shuffle scans sequentially and CorgiPile seeks per block",
	"iosim.Device.WithTrace": "attaches iosim.Trace; it sets a Device field, so it cannot live in another package's tests",
	"storage.WriteFaults": "the WAL write-path fault plan (short write, ENOSPC, failed fsync) that storage's " +
		"and db's tests inject through the WrapSyncer seam; serve's tests reuse its errors",
	"storage.WALPrefixLen": "cuts a copy of the log at an LSN, by the frame format only storage knows; " +
		"serve's failover test rebuilds the primary a replica saw with it",
	"obs.PlanStats.SelfSimSum": "the exclusive-time conservation check (self times add up to the root's total) " +
		"that obs's, executor's and db's tests hold executed plans to",
	"serve.Client": "the library's protocol client (corgipile.ServeClient): one method per wire op, " +
		"cancel, status and quit included, whether or not the module itself sends that op",
}

// stdInterfaces are standard-library interfaces whose methods the standard
// library calls on this module's values (fmt, encoding/json, io, net/http...).
// A method that lets its type satisfy one of them counts as used.
var stdInterfaces = []string{
	"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter",
	"encoding/json.Marshaler", "encoding/json.Unmarshaler",
	"encoding.TextMarshaler", "encoding.TextUnmarshaler",
	"io.Reader", "io.Writer", "io.Closer", "io.ReaderAt", "io.WriterAt",
	"io.Seeker", "io.StringWriter", "io.ReaderFrom", "io.WriterTo",
	"sort.Interface", "container/heap.Interface",
	"net/http.Handler", "net/http.Flusher", "flag.Value",
}

// TestReachable fails when a declaration under internal/ has no caller outside
// _test.go files: every package is internal, so an exported name promises
// nothing, and a declaration only tests reach is dead code with a test.
//
// Callers are the non-test files of the root module and of the benchmark
// module (its own module, importing internal/ directly). A declaration is
// reachable when a caller refers to it, or when a reachable declaration does.
// A method is also reachable when its reachable type implements a reachable
// interface (or a standard-library one) that declares it, which covers
// sealed marker methods and methods called only through an interface.
func TestReachable(t *testing.T) {
	g, err := loadReachGraph(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.nodes) < 1000 {
		t.Fatalf("found %d declarations under internal/; the walk missed the module", len(g.nodes))
	}
	g.markReachable()
	var stale []string
	for name := range reachAllow {
		obj, ok := g.byName[name]
		if !ok {
			stale = append(stale, name+": names no declaration under internal/")
			continue
		}
		kept := append([]types.Object{obj}, g.members[obj]...)
		used := true
		for _, o := range kept {
			used = used && g.live[o]
		}
		if used {
			stale = append(stale, name+": has a non-test caller")
		}
		for _, o := range kept {
			g.mark(o)
		}
	}
	g.markReachable()
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("reachAllow entry %s; drop it", s)
	}
	if dead := g.unreachable(); len(dead) > 0 {
		t.Errorf("%d declarations under internal/ have no non-test caller:\n%s\n"+
			"delete it, move it into a _test.go file of its package, or allow-list it with a reason in reachAllow",
			len(dead), strings.Join(dead, "\n"))
	}
}

// reachNode is one declaration under internal/ and what its declaration
// refers to.
type reachNode struct {
	pos    token.Pos
	name   string       // pkg.Name, pkg.Type.Method or pkg.Type.Field
	owner  types.Object // the type a method or field belongs to
	refs   []types.Object
	ifaces []*types.Interface
}

type reachGraph struct {
	fset    *token.FileSet
	root    string
	info    *types.Info
	std     types.Importer
	pkgs    map[string]*types.Package
	files   map[string][]*ast.File
	nodes   map[types.Object]*reachNode
	byName  map[string]types.Object
	members map[types.Object][]types.Object // a type's methods and fields
	named   []*types.Named                  // module types that declare methods
	roots   []ast.Node                      // caller files and init functions

	live   map[types.Object]bool
	work   []types.Object
	ifaces []*types.Interface
	seen   map[*types.Interface]bool
}

// loadReachGraph type-checks every non-test package of the module rooted at
// root (including the benchmark module) from source, the standard library
// from export data, and records the references of every declaration.
func loadReachGraph(root string) (*reachGraph, error) {
	g := &reachGraph{
		fset: token.NewFileSet(),
		root: root,
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		std:     importer.Default(),
		pkgs:    map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		nodes:   map[types.Object]*reachNode{},
		byName:  map[string]types.Object{},
		members: map[types.Object][]types.Object{},
		live:    map[types.Object]bool{},
		seen:    map[*types.Interface]bool{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := "corgipile"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		if _, err := g.Import(importPath); err != nil {
			return err
		}
		files := g.files[importPath]
		if strings.HasPrefix(importPath, "corgipile/internal/") {
			for _, f := range files {
				g.addDecls(f)
			}
		} else {
			for _, f := range files {
				g.roots = append(g.roots, f)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for obj, n := range g.nodes {
		g.byName[n.name] = obj
		if n.owner != nil {
			g.members[n.owner] = append(g.members[n.owner], obj)
		}
	}
	roots := &reachNode{}
	for _, x := range g.roots {
		g.collect(roots, x)
	}
	g.follow(roots)
	for _, name := range stdInterfaces {
		i := strings.LastIndex(name, ".")
		pkg, err := g.std.Import(name[:i])
		if err != nil {
			return nil, err
		}
		g.addIface(pkg.Scope().Lookup(name[i+1:]).Type().Underlying().(*types.Interface))
	}
	g.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return g, nil
}

// Import checks module packages from source, once each, so that every
// package sees the same objects; the standard library comes from export data.
func (g *reachGraph) Import(path string) (*types.Package, error) {
	if path != "corgipile" && !strings.HasPrefix(path, "corgipile/") {
		return g.std.Import(path)
	}
	if pkg, ok := g.pkgs[path]; ok {
		return pkg, nil
	}
	return g.check(path)
}

// check type-checks the non-test files of one module package; a directory
// without Go files is a nil package.
func (g *reachGraph) check(importPath string) (*types.Package, error) {
	dir := filepath.Join(g.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(importPath, "corgipile"), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			g.pkgs[importPath] = nil
			return nil, nil
		}
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(g.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: g}
	pkg, err := conf.Check(importPath, g.fset, files, g.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", importPath, err)
	}
	g.pkgs[importPath] = pkg
	g.files[importPath] = files
	return pkg, nil
}

// addDecls makes a node of every package-level declaration in f, every
// method and every named struct field. An init function is a caller.
func (g *reachGraph) addDecls(f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name == "init" {
				g.roots = append(g.roots, d)
				continue
			}
			obj := g.info.Defs[d.Name].(*types.Func)
			n := g.node(obj, d.Pos())
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				named := namedOf(recv.Type())
				n.owner = named.Obj()
				n.name = n.owner.Pkg().Name() + "." + n.owner.Name() + "." + obj.Name()
			}
			g.collect(n, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					obj := g.info.Defs[s.Name]
					n := g.node(obj, s.Pos())
					if named, ok := obj.Type().(*types.Named); ok && named.NumMethods() > 0 {
						g.named = append(g.named, named)
					}
					if s.TypeParams != nil {
						g.collect(n, s.TypeParams)
					}
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						g.collect(n, s.Type)
						continue
					}
					for _, field := range st.Fields.List {
						if len(field.Names) == 0 { // embedded: part of the type
							g.collect(n, field.Type)
						}
						for _, id := range field.Names {
							fn := g.node(g.info.Defs[id], id.Pos())
							fn.owner = obj
							fn.name = obj.Pkg().Name() + "." + obj.Name() + "." + id.Name
							g.collect(fn, field.Type)
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.Name == "_" {
							continue
						}
						n := g.node(g.info.Defs[id], id.Pos())
						if s.Type != nil {
							g.collect(n, s.Type)
						}
						for _, v := range s.Values {
							g.collect(n, v)
						}
					}
				}
			}
		}
	}
}

func (g *reachGraph) node(obj types.Object, pos token.Pos) *reachNode {
	n := &reachNode{pos: pos, name: obj.Pkg().Name() + "." + obj.Name()}
	g.nodes[obj] = n
	return n
}

// collect records in n every object the syntax under x refers to, every
// field an unkeyed struct literal sets, and every interface x spells out or
// calls a method of.
func (g *reachGraph) collect(n *reachNode, x ast.Node) {
	ast.Inspect(x, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.Ident:
			obj := g.info.Uses[x]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if recv := o.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						n.ifaces = append(n.ifaces, it)
					}
				}
			case *types.Var:
				obj = o.Origin()
			}
			if obj != nil {
				n.refs = append(n.refs, obj)
			}
		case *ast.CompositeLit:
			st, ok := g.info.Types[x].Type.Underlying().(*types.Struct)
			if ok && len(x.Elts) > 0 {
				if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
					if named := namedOf(g.info.Types[x].Type); named != nil {
						st = named.Origin().Underlying().(*types.Struct)
					}
					for i := 0; i < st.NumFields(); i++ {
						n.refs = append(n.refs, st.Field(i))
					}
				}
			}
		case *ast.InterfaceType:
			n.ifaces = append(n.ifaces, g.info.Types[x].Type.Underlying().(*types.Interface))
		}
		return true
	})
}

// mark makes obj reachable, if it is a declaration under internal/.
func (g *reachGraph) mark(obj types.Object) {
	if _, ok := g.nodes[obj]; ok && !g.live[obj] {
		g.live[obj] = true
		g.work = append(g.work, obj)
	}
}

func (g *reachGraph) follow(n *reachNode) {
	for _, ref := range n.refs {
		g.mark(ref)
	}
	for _, it := range n.ifaces {
		g.addIface(it)
	}
}

func (g *reachGraph) addIface(it *types.Interface) {
	if !g.seen[it] {
		g.seen[it] = true
		g.ifaces = append(g.ifaces, it)
	}
}

// markReachable propagates reachability to a fixed point: through the
// references of every reachable declaration, the type of every reachable
// constant and variable, and the methods a reachable type needs to satisfy a
// reachable interface.
func (g *reachGraph) markReachable() {
	for len(g.work) > 0 {
		for len(g.work) > 0 {
			obj := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			g.follow(g.nodes[obj])
			switch obj.(type) {
			case *types.Var, *types.Const:
				if named := namedOf(obj.Type()); named != nil {
					g.mark(named.Obj())
				}
			}
		}
		for _, named := range g.named {
			if !g.live[named.Obj()] {
				continue
			}
			ptr := types.NewPointer(named)
			for _, it := range g.ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); obj != nil {
						g.mark(obj)
					}
				}
			}
		}
	}
}

// unreachable lists, sorted by position, every declaration not reachable.
func (g *reachGraph) unreachable() []string {
	var dead []*reachNode
	for obj, n := range g.nodes {
		if !g.live[obj] {
			dead = append(dead, n)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return g.less(dead[i].pos, dead[j].pos) })
	out := make([]string, len(dead))
	for i, n := range dead {
		p := g.fset.Position(n.pos)
		rel, err := filepath.Rel(g.root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		out[i] = fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), p.Line, n.name)
	}
	return out
}

func (g *reachGraph) less(a, b token.Pos) bool {
	pa, pb := g.fset.Position(a), g.fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
