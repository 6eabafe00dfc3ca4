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
	"maps"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists declarations under internal/ that stay without a non-test
// caller, keyed pkg.Name or pkg.Type.Member; an entry naming a type keeps its
// methods and fields too, and counts the fields of the structs its methods
// return as read, since what it hands out is for its test callers to read.
// A field entry keeps a field that non-test code reads but never sets, or
// sets but never reads. Each entry needs a reason. TestReachable fails on an
// entry that names nothing or that keeps nothing non-test code does not
// already keep.
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
	"shuffle.Options.SampleOnly": "Theorem 1's regime of n whole blocks per epoch, which shuffle's tests " +
		"pin as the reference the rate tests of ROADMAP item 9 read",
	"core.RunConfig.Procs": "frozen-benchmark shim: benchmark/ladder.go sets it; ROADMAP item 1(h) removes it",
	"core.RunConfig.Seed":  "frozen-benchmark shim: benchmark/ladder.go sets it; ROADMAP item 1(h) removes it",
	"ml.Trainer.Procs":     "frozen-benchmark shim: benchmark/ladder.go sets it; ROADMAP item 1(h) removes it",
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
//
// A reachable struct field must also be both read and set by reachable code:
// a field only tests set is a constant with a name, and a field nobody reads
// is dead state. See reachGraph.collect for what counts as which.
func TestReachable(t *testing.T) {
	g, err := loadReachGraph(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.nodes) < 1000 {
		t.Fatalf("found %d declarations under internal/; the walk missed the module", len(g.nodes))
	}
	r := g.report(reachAllow)
	for _, s := range r.stale {
		t.Errorf("reachAllow entry %s; drop it", s)
	}
	for _, c := range []struct {
		found []string
		what  string
	}{
		{r.dead, "have no non-test caller"},
		{r.unset, "are read by non-test code but set only by tests: replace each read with the default"},
		{r.unread, "are set by non-test code but never read"},
	} {
		if len(c.found) > 0 {
			t.Errorf("%d declarations under internal/ %s:\n%s\n"+
				"delete it, move it into a _test.go file of its package, or allow-list it with a reason in reachAllow",
				len(c.found), c.what, strings.Join(c.found, "\n"))
		}
	}
}

// TestReachableFieldClasses holds the field classifier to a fixture with one
// field per kind of access, of which exactly two are dead.
func TestReachableFieldClasses(t *testing.T) {
	g, err := loadReachGraph(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	r := g.report(nil)
	want := reachReport{
		unset:  []string{"internal/fix/fix.go:7 fix.Fields.ReadNeverSet"},
		unread: []string{"internal/fix/fix.go:8 fix.Fields.SetNeverRead"},
	}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("fixture report:\n got %+v\nwant %+v", r, want)
	}
}

// Kinds of access to a struct field.
const (
	accRead = 1 << iota
	accWrite
)

// reachNode is one declaration under internal/ and what its declaration
// refers to.
type reachNode struct {
	pos    token.Pos
	name   string       // pkg.Name, pkg.Type.Method or pkg.Type.Field
	owner  types.Object // the type a method or field belongs to
	refs   []types.Object
	reads  []types.Object // fields the declaration reads
	writes []types.Object // fields the declaration sets
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
	callers []ast.Node                      // caller files and init functions
	roots   *reachNode                      // what the callers refer to
	json    map[types.Object]bool           // fields encoding/json reads and fills
	acc     map[*ast.Ident]int              // field selectors that are not plain reads

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
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		std:     importer.Default(),
		pkgs:    map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		nodes:   map[types.Object]*reachNode{},
		byName:  map[string]types.Object{},
		members: map[types.Object][]types.Object{},
		roots:   &reachNode{},
		json:    map[types.Object]bool{},
		acc:     map[*ast.Ident]int{},
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
				g.callers = append(g.callers, f)
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
	for _, x := range g.callers {
		g.collect(g.roots, x)
	}
	g.follow(g.roots)
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
				g.callers = append(g.callers, d)
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
							if field.Tag != nil {
								tag := reflect.StructTag(strings.Trim(field.Tag.Value, "`"))
								if name, ok := tag.Lookup("json"); ok && name != "-" {
									g.json[g.info.Defs[id]] = true
								}
							}
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
// interface x spells out or calls a method of, and whether each field it
// names is read, set, or both. A field is set by an assignment to it, a
// composite-literal key, an unkeyed literal (every field), ++ and --, and a
// range clause; it is read and set by op=, by &, by slicing an array and by a
// pointer-receiver method called on it. Setting an element or a field of a
// struct-valued field sets that field too. Every other mention reads it.
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
				if o.IsField() {
					acc, ok := g.acc[x]
					if !ok {
						acc = accRead
					}
					g.access(n, obj, acc)
				}
			}
			if obj != nil {
				n.refs = append(n.refs, obj)
			}
		case *ast.AssignStmt:
			acc := accWrite
			if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
				acc |= accRead
			}
			for _, lhs := range x.Lhs {
				g.store(lhs, acc)
			}
		case *ast.IncDecStmt:
			g.store(x.X, accWrite)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					g.store(e, accWrite)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				g.store(x.X, accRead|accWrite)
			}
		case *ast.SliceExpr:
			if _, ok := g.info.Types[x.X].Type.Underlying().(*types.Array); ok {
				g.store(x.X, accRead|accWrite)
			}
		case *ast.SelectorExpr:
			if sel := g.info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal {
				recv := sel.Obj().Type().(*types.Signature).Recv()
				if _, ptr := recv.Type().(*types.Pointer); ptr && !isPointer(g.info.Types[x.X].Type) {
					g.store(x.X, accRead|accWrite)
				}
			}
		case *ast.CompositeLit:
			t := g.info.Types[x].Type
			if named := namedOf(t); named != nil {
				t = named.Origin()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok || len(x.Elts) == 0 {
				break
			}
			if _, keyed := x.Elts[0].(*ast.KeyValueExpr); keyed {
				for _, e := range x.Elts {
					g.acc[e.(*ast.KeyValueExpr).Key.(*ast.Ident)] = accWrite
				}
				break
			}
			for i := 0; i < st.NumFields(); i++ {
				n.refs = append(n.refs, st.Field(i))
				g.access(n, st.Field(i), accWrite)
			}
		case *ast.InterfaceType:
			n.ifaces = append(n.ifaces, g.info.Types[x].Type.Underlying().(*types.Interface))
		}
		return true
	})
}

// store records that e is stored to with the access acc: the field e
// selects or indexes, and with it every field of a struct value that holds
// e. A field reached through a pointer is only read.
func (g *reachGraph) store(e ast.Expr, acc int) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := g.info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			g.acc[x.Sel] |= acc
			if sel.Indirect() {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

func (g *reachGraph) access(n *reachNode, field types.Object, acc int) {
	if acc&accRead != 0 {
		n.reads = append(n.reads, field)
	}
	if acc&accWrite != 0 {
		n.writes = append(n.writes, field)
	}
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

// reachReport is what the gate finds, each list as file:line pkg.Name.
type reachReport struct {
	stale  []string // allow-list entries that keep nothing
	dead   []string // declarations no non-test caller reaches
	unset  []string // fields reachable code reads and only tests set
	unread []string // fields reachable code sets and never reads
}

// report marks what the callers reach, then what the allow-list keeps, and
// lists what is left dead or half used.
func (g *reachGraph) report(allow map[string]string) reachReport {
	var r reachReport
	g.markReachable()
	reached := maps.Clone(g.live)
	keeps, handsOut := map[string][]types.Object{}, map[string][]types.Object{}
	for name := range allow {
		obj, ok := g.byName[name]
		if !ok {
			r.stale = append(r.stale, name+": names no declaration under internal/")
			continue
		}
		keeps[name] = append([]types.Object{obj}, g.members[obj]...)
		for _, o := range keeps[name] {
			g.mark(o)
			if m, ok := o.(*types.Func); ok {
				handsOut[name] = append(handsOut[name], g.returnedFields(m)...)
			}
		}
	}
	g.markReachable()
	read, written := map[types.Object]bool{}, map[types.Object]bool{}
	for _, n := range g.liveNodes() {
		for _, f := range n.reads {
			read[f] = true
		}
		for _, f := range n.writes {
			written[f] = true
		}
	}
	exempt := map[types.Object]bool{}
	for name, objs := range keeps {
		needed := false
		for _, o := range objs {
			exempt[o] = true
			needed = needed || !reached[o] || isField(o) && !g.json[o] && !(read[o] && written[o])
		}
		for _, f := range handsOut[name] {
			needed = needed || !read[f] && !g.json[f]
		}
		if !needed {
			r.stale = append(r.stale, name+": keeps nothing non-test code does not")
		}
	}
	for _, fields := range handsOut {
		for _, f := range fields {
			read[f] = true
		}
	}
	sort.Strings(r.stale)
	var dead, unset, unread []types.Object
	for obj := range g.nodes {
		switch {
		case !g.live[obj]:
			dead = append(dead, obj)
		case !isField(obj) || exempt[obj] || g.json[obj]:
		case !written[obj]:
			unset = append(unset, obj)
		case !read[obj]:
			unread = append(unread, obj)
		}
	}
	r.dead, r.unset, r.unread = g.positions(dead), g.positions(unset), g.positions(unread)
	return r
}

// liveNodes returns the callers' node and every reachable declaration's.
func (g *reachGraph) liveNodes() []*reachNode {
	out := []*reachNode{g.roots}
	for obj := range g.live {
		out = append(out, g.nodes[obj])
	}
	return out
}

func isField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

// returnedFields lists the fields of every module struct m returns, through
// pointers, slices, arrays, maps and channels.
func (g *reachGraph) returnedFields(m *types.Func) []types.Object {
	var out []types.Object
	res := m.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		for {
			e, ok := t.(interface{ Elem() types.Type })
			if !ok {
				break
			}
			t = e.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok && namedOf(t) != nil {
			for j := 0; j < st.NumFields(); j++ {
				if _, ok := g.nodes[st.Field(j)]; ok {
					out = append(out, st.Field(j))
				}
			}
		}
	}
	return out
}

// positions lists objs as file:line pkg.Name, sorted by position.
func (g *reachGraph) positions(objs []types.Object) []string {
	sort.Slice(objs, func(i, j int) bool { return g.less(g.nodes[objs[i]].pos, g.nodes[objs[j]].pos) })
	var out []string
	for _, obj := range objs {
		n := g.nodes[obj]
		p := g.fset.Position(n.pos)
		rel, err := filepath.Rel(g.root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		out = append(out, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), p.Line, n.name))
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

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
