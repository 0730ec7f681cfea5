package bandjoin_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// exportsAllowed lists the exported internal identifiers that may have no
// caller in non-test code, each with the reason it stays. Keys are
// "pkg.Func", "pkg.Type" or "pkg.Type.Method".
var exportsAllowed = map[string]string{
	"cluster.Worker.SetWireVersion":    "test seam: pins a worker to an older wire version for the mixed-version tests",
	"cluster.Coordinator.WorkerStates": "test seam: failover tests read each worker's health through it",
	"cluster.Coordinator.Run":          "kept while benchmark/replay.go sets cluster.Options.Sampling and Seed, which only Run reads; it goes with the benchmark's half of the knob audit",
	"grid.Plan.CellSizes":              "test seam: pins the cell sizes Grid-ε derives from the band",
	"csio.Plan.Rectangles":             "test seam: counts the rectangles CSIO's cover produced",
	"csio.Plan.EstimatedLoads":         "test seam: exposes the per-partition loads CSIO's cover was scored by",
	"iejoin.Plan.Blocks":               "test seam: counts the blocks IEJoin's equi-depth split produced",
	"csio.NewWithGranularity":          "test seam: builds CSIO at a granularity the public constructor does not expose",
	"bench.Summarize":                  "test seam: reduces a paper table to the overheads its tests assert",
	"core.Plan.Regions":                "test seam: the golden-plan hashes and the tiling test read a plan's leaf regions",
	"chaos.Start":                      "fault-injection harness: the package exists for the cluster fault tests",
	"chaos.Generate":                   "fault-injection harness: a seeded fault schedule",
	"chaos.Node.Worker":                "fault-injection harness: the worker behind a chaos node",
	"chaos.Node.Addr":                  "fault-injection harness: the address a test dials or restarts a chaos node on",
	"chaos.Node.Stop":                  "fault-injection harness: shuts a chaos node down at the end of a test",
	"chaos.Schedule.Calls":             "fault-injection harness: counts the RPCs a chaos schedule saw",
	"core.Plan.DumpTree":               "debugging aid: the starting point for dumping a plan's split tree in the trace",
}

// exportsAllowedMethods lists method names that satisfy a standard-library
// interface, whose caller is that library rather than this module.
var exportsAllowedMethods = map[string]string{
	"String": "fmt.Stringer",
	"Error":  "error",
	"Len":    "sort.Interface / heap.Interface",
	"Less":   "sort.Interface / heap.Interface",
	"Swap":   "sort.Interface / heap.Interface",
	"Push":   "heap.Interface",
	"Pop":    "heap.Interface",
	"Read":   "io.Reader",
	"Write":  "io.Writer",
}

// TestInternalExportsHaveCallers fails when an exported top-level func,
// method or type under internal/, or a method of an exported interface there,
// is referenced by no non-test file of this module or of benchmark/. Code that
// only its own tests call is code nothing runs; delete it with its tests, or
// add it to exportsAllowed with a reason.
//
// The check type-checks every non-test package (go/types, the standard
// library from source) and resolves each reference to the object it denotes:
//   - a type or func counts as referenced where an identifier resolves to it;
//   - a method counts as referenced where a selector resolves to it, where a
//     selector resolves to an interface method of the same name that its
//     type implements, or by a string literal "Service.Name" (net/rpc
//     methods are called by string);
//   - a reference made inside an unreferenced declaration does not count, so
//     a chain of dead code is reported whole, but one made inside an allowed
//     declaration does: what a kept declaration calls is kept too;
//   - a method of an unreferenced type is unreferenced.
func TestInternalExportsHaveCallers(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed := func(k string) bool {
		if _, ok := exportsAllowed[k]; ok {
			return true
		}
		_, ok := exportsAllowedMethods[k[strings.LastIndexByte(k, '.')+1:]]
		return ok && strings.Count(k, ".") == 2
	}
	dead := m.deadExports(allowed)
	var unexplained []string
	for _, k := range dead {
		if !allowed(k) {
			unexplained = append(unexplained, k)
		}
	}
	if len(unexplained) > 0 {
		t.Errorf("%d exported internal identifiers have no caller outside tests:\n\t%s",
			len(unexplained), strings.Join(unexplained, "\n\t"))
	}
	// An allow-list entry for something that is gone or now called is stale.
	for k := range exportsAllowed {
		if !slices.Contains(dead, k) {
			t.Errorf("exportsAllowed[%q] names nothing uncalled; drop the entry", k)
		}
	}
}

// modulePkg is one non-test package of the module or of benchmark/.
type modulePkg struct {
	path  string // import path
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	types *types.Package
}

// moduleSet type-checks the module's packages into one universe of objects,
// so a reference in one package resolves to the very object another declares.
// It is the checker's importer: module paths are checked here, everything else
// comes from the standard library's source.
type moduleSet struct {
	fset   *token.FileSet
	info   *types.Info
	pkgs   []*modulePkg
	byPath map[string]*modulePkg
	std    types.ImporterFrom
}

// loadModule parses every non-test Go file under root that the build
// constraints select, skipping dot directories and testdata, and type-checks
// the packages. The benchmark module's path, bandjoin/benchmark, is its
// directory's path under the root module's, so one mapping serves both.
func loadModule(root string) (*moduleSet, error) {
	fset := token.NewFileSet()
	m := &moduleSet{
		fset:   fset,
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		byPath: map[string]*modulePkg{},
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		ip := path.Join("bandjoin", dir)
		pkg := m.byPath[ip]
		if pkg == nil {
			pkg = &modulePkg{path: ip, dir: dir}
			m.byPath[ip] = pkg
			m.pkgs = append(m.pkgs, pkg)
		}
		pkg.files = append(pkg.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(m.pkgs) == 0 {
		return nil, fs.ErrNotExist
	}
	for _, pkg := range m.pkgs {
		if _, err := m.check(pkg); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *moduleSet) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, ".", 0)
}

func (m *moduleSet) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := m.byPath[path]; ok {
		return m.check(pkg)
	}
	return m.std.ImportFrom(path, dir, mode)
}

func (m *moduleSet) check(pkg *modulePkg) (*types.Package, error) {
	if pkg.types == nil {
		conf := types.Config{Importer: m}
		tp, err := conf.Check(pkg.path, m.fset, pkg.files, m.info)
		if err != nil {
			return nil, err
		}
		pkg.types = tp
	}
	return pkg.types, nil
}

// exportDecl is one candidate: an exported top-level func or type under
// internal/, an exported method of a type there, or a method of an exported
// interface there.
type exportDecl struct {
	key  string // "pkg.Name" or "pkg.Type.Method"
	obj  types.Object
	recv string // the key of the receiver's type, for a method
}

// refs records, for every object referenced, the candidates the references
// sit in: a candidate's key, or "" for code that is always kept.
type refs struct {
	objs   map[types.Object][]string
	byName map[string][]string // "Service.Method" string literals, by method name
}

// deadExports returns the keys of the candidates nothing references. An
// allowed candidate is reported too, but stays live to what it references.
func (m *moduleSet) deadExports(allowed func(key string) bool) []string {
	decls := map[string]*exportDecl{}
	r := refs{objs: map[types.Object][]string{}, byName: map[string][]string{}}
	for _, pkg := range m.pkgs {
		internal := strings.HasPrefix(pkg.dir, "internal/")
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					from := ""
					if internal && d.Name.IsExported() {
						e := m.funcExport(pkg.types, d)
						decls[e.key] = e
						from = e.key
					}
					// A func's receiver is no reference to its type.
					m.collect(&r, d.Type, from)
					if d.Body != nil {
						m.collect(&r, d.Body, from)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						from := ""
						if ts, ok := s.(*ast.TypeSpec); ok && internal && ts.Name.IsExported() {
							for _, e := range m.typeExports(pkg.types, ts) {
								decls[e.key] = e
							}
							from = pkg.types.Name() + "." + ts.Name.Name
						}
						m.collect(&r, s, from)
					}
				}
			}
		}
	}

	// Every interface method a reference resolves to, by name: a method of a
	// type implementing that interface is reached through it.
	ifaceRefs := map[string][]*types.Func{}
	for obj := range r.objs {
		if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
			ifaceRefs[fn.Name()] = append(ifaceRefs[fn.Name()], fn)
		}
	}
	refsOf := map[string][]string{}
	for k, e := range decls {
		rs := slices.Clone(r.objs[e.obj])
		if fn, ok := e.obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			rs = append(rs, r.byName[fn.Name()]...)
			if !isInterfaceMethod(fn) {
				for _, im := range ifaceRefs[fn.Name()] {
					if implements(fn, im) {
						rs = append(rs, r.objs[im]...)
					}
				}
			}
		}
		refsOf[k] = rs
	}

	// A declaration is dead when every reference to it sits in itself or in
	// a dead declaration; iterate until no more die.
	uncalled, isDead := map[string]bool{}, map[string]bool{}
	live := func(refs []string, self string) bool {
		for _, r := range refs {
			if r == "" || (r != self && !isDead[r]) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for k, e := range decls {
			if uncalled[k] {
				continue
			}
			if (e.recv != "" && isDead[e.recv]) || !live(refsOf[k], k) {
				uncalled[k] = true
				isDead[k] = !allowed(k)
				changed = true
			}
		}
	}
	return slices.Sorted(maps.Keys(uncalled))
}

// funcExport returns the candidate an exported func or method declares.
func (m *moduleSet) funcExport(pkg *types.Package, d *ast.FuncDecl) *exportDecl {
	fn := m.info.Defs[d.Name].(*types.Func)
	if d.Recv == nil {
		return &exportDecl{key: pkg.Name() + "." + fn.Name(), obj: fn}
	}
	recv := pkg.Name() + "." + recvName(fn)
	return &exportDecl{key: recv + "." + fn.Name(), obj: fn, recv: recv}
}

// typeExports returns the candidates an exported type declares: the type and,
// for an interface, its methods.
func (m *moduleSet) typeExports(pkg *types.Package, ts *ast.TypeSpec) []*exportDecl {
	tn := m.info.Defs[ts.Name]
	key := pkg.Name() + "." + tn.Name()
	out := []*exportDecl{{key: key, obj: tn}}
	if it, ok := tn.Type().Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumExplicitMethods(); i++ {
			fn := it.ExplicitMethod(i)
			out = append(out, &exportDecl{key: key + "." + fn.Name(), obj: fn, recv: key})
		}
	}
	return out
}

// collect records every reference made inside n as made from the candidate
// keyed from.
func (m *moduleSet) collect(r *refs, n ast.Node, from string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			switch obj := m.info.Uses[x].(type) {
			case *types.Func:
				r.objs[obj.Origin()] = append(r.objs[obj.Origin()], from)
			case *types.TypeName:
				r.objs[obj] = append(r.objs[obj], from)
			}
		case *ast.BasicLit:
			// "Service.Method": a net/rpc call by name.
			if s, err := strconv.Unquote(x.Value); x.Kind == token.STRING && err == nil {
				if i := strings.LastIndexByte(s, '.'); i >= 0 && token.IsIdentifier(s[i+1:]) {
					r.byName[s[i+1:]] = append(r.byName[s[i+1:]], from)
				}
			}
		}
		return true
	})
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// recvName is the name of a method's receiver type.
func recvName(fn *types.Func) string {
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// implements reports whether the receiver type of the concrete method fn, or
// a pointer to it, implements the interface that declares im.
func implements(fn, im *types.Func) bool {
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() > 0 {
		return false // a generic type implements nothing until instantiated
	}
	it, ok := im.Signature().Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	if n, ok := im.Signature().Recv().Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false
	}
	return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
}
