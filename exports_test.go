package bandjoin_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
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
	"cluster.Worker.SetShipHook":       "test seam: the chaos and fault tests intercept shipment streams with it",
	"cluster.Coordinator.WorkerStates": "test seam: failover tests read each worker's health through it",
	"grid.Plan.CellSizes":              "test seam: pins the cell sizes Grid-ε derives from the band",
	"csio.Plan.Rectangles":             "test seam: counts the rectangles CSIO's cover produced",
	"csio.Plan.EstimatedLoads":         "test seam: exposes the per-partition loads CSIO's cover was scored by",
	"iejoin.Plan.Blocks":               "test seam: counts the blocks IEJoin's equi-depth split produced",
	"csio.NewWithGranularity":          "test seam: builds CSIO at a granularity the public constructor does not expose",
	"bench.Summarize":                  "test seam: reduces a paper table to the overheads its tests assert",
	"core.Plan.Regions":                "test seam: the golden-plan hashes and the tiling test read a plan's leaf regions",
	"core.Plan.FinalStats":             "test seam: the planner tests assert the chosen iteration's estimates",
	"onebucket.Plan.Cols":              "test seam: pins the 1-Bucket matrix shape (Rows has a caller)",
	"data.Relation.MinMax":             "test seam: the sample-merge test checks that an appended range reaches the sample",
	"chaos.Start":                      "fault-injection harness: the package exists for the cluster fault tests",
	"chaos.StartOn":                    "fault-injection harness: restarts a killed node on its old address",
	"chaos.NewSchedule":                "fault-injection harness: a hand-written fault schedule",
	"chaos.Generate":                   "fault-injection harness: a seeded fault schedule",
	"chaos.Node.Worker":                "fault-injection harness: the worker behind a chaos node",
	"chaos.Schedule.Calls":             "fault-injection harness: counts the RPCs a chaos schedule saw",
	"chaos.Node.Killed":                "fault-injection harness: reports whether a chaos schedule killed a node",
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
}

// TestInternalExportsHaveCallers fails when an exported top-level func,
// method or type under internal/ is referenced by no non-test file of this
// module or of benchmark/. Code that only its own tests call is code nothing
// runs; delete it with its tests, or add it to exportsAllowed with a reason.
//
// The check is syntactic (go/parser only):
//   - a type or func counts as referenced by its bare name in its own package,
//     or as pkg.Name where pkg is an import of its package;
//   - a method counts as referenced by any call x.Name(...), by a non-call
//     selector x.Name when no struct field of that name exists, or by a string
//     literal "Service.Name" (net/rpc methods are called by string);
//   - a reference made inside an unreferenced declaration does not count, so
//     a chain of dead code is reported whole;
//   - a method of an unreferenced type is unreferenced.
func TestInternalExportsHaveCallers(t *testing.T) {
	var files []*parsedFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, &parsedFile{dir: filepath.ToSlash(filepath.Dir(p)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found; the test must run from the module root")
	}
	dead := deadExports(files)
	var unexplained []string
	for _, k := range dead {
		if _, ok := exportsAllowed[k]; ok {
			continue
		}
		if _, ok := exportsAllowedMethods[k[strings.LastIndexByte(k, '.')+1:]]; ok && strings.Count(k, ".") == 2 {
			continue
		}
		unexplained = append(unexplained, k)
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

type parsedFile struct {
	dir string // slash-separated, relative to the module root
	f   *ast.File
}

// exportDecl is one exported top-level declaration under internal/.
type exportDecl struct {
	key  string // "pkg.Name" or "pkg.Type.Method"
	dir  string
	name string
	recv string // the receiver's type name, for a method
}

// refIndex records, for every name referenced, the declarations the
// references sit in: the key of a candidate exportDecl, or "" for code that is
// always kept.
type refIndex struct {
	fields  map[string]bool        // every struct field name of the module
	pkg     map[[2]string][]string // (dir, name) of a package-level name
	methods map[string][]string    // method name
}

func deadExports(files []*parsedFile) []string {
	pkgName := map[string]string{} // dir → package name
	for _, pf := range files {
		pkgName[pf.dir] = pf.f.Name.Name
	}
	decls := map[string]*exportDecl{}
	idx := refIndex{fields: map[string]bool{}, pkg: map[[2]string][]string{}, methods: map[string][]string{}}
	for _, pf := range files {
		ast.Inspect(pf.f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, nm := range fl.Names {
						idx.fields[nm.Name] = true
					}
				}
			}
			return true
		})
		if strings.HasPrefix(pf.dir, "internal/") {
			for _, d := range pf.f.Decls {
				for _, e := range declExports(pf.dir, pkgName[pf.dir], d) {
					decls[e.key] = e
				}
			}
		}
	}

	for _, pf := range files {
		imports := map[string]string{} // local name → dir
		for _, is := range pf.f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			if dir, ok := strings.CutPrefix(ip, "bandjoin/"); ok {
				local := pkgName[dir]
				if is.Name != nil {
					local = is.Name.Name
				}
				imports[local] = dir
			}
		}
		// A reference sits in the candidate it is made from, if any; a
		// declaration's own name and a method's receiver are no references.
		internal := strings.HasPrefix(pf.dir, "internal/")
		for _, d := range pf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				from := ""
				if ex := declExports(pf.dir, pkgName[pf.dir], d); internal && len(ex) == 1 {
					from = ex[0].key
				}
				idx.collect(pf.dir, imports, d.Type, from)
				if d.Body != nil {
					idx.collect(pf.dir, imports, d.Body, from)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						idx.collect(pf.dir, imports, s, "")
						continue
					}
					from := ""
					if internal && ts.Name.IsExported() {
						from = pkgName[pf.dir] + "." + ts.Name.Name
					}
					if ts.TypeParams != nil {
						idx.collect(pf.dir, imports, ts.TypeParams, from)
					}
					idx.collect(pf.dir, imports, ts.Type, from)
				}
			}
		}
	}

	// A declaration is dead when every reference to it sits in itself or in
	// a dead declaration; iterate until no more die.
	isDead := map[string]bool{}
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
			if isDead[k] {
				continue
			}
			ok := live(idx.pkg[[2]string{e.dir, e.name}], k)
			if e.recv != "" {
				ok = !isDead[pkgName[e.dir]+"."+e.recv] && live(idx.methods[e.name], k)
			}
			if !ok {
				isDead[k] = true
				changed = true
			}
		}
	}
	return slices.Sorted(maps.Keys(isDead))
}

// declExports returns the exported funcs, methods and types declared by d.
func declExports(dir, pkg string, d ast.Decl) []*exportDecl {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv == nil {
			return []*exportDecl{{key: pkg + "." + d.Name.Name, dir: dir, name: d.Name.Name}}
		}
		recv := recvTypeName(d.Recv.List[0].Type)
		return []*exportDecl{{key: pkg + "." + recv + "." + d.Name.Name, dir: dir, name: d.Name.Name, recv: recv}}
	case *ast.GenDecl:
		if d.Tok != token.TYPE {
			return nil
		}
		var out []*exportDecl
		for _, s := range d.Specs {
			ts := s.(*ast.TypeSpec)
			if ts.Name.IsExported() {
				out = append(out, &exportDecl{key: pkg + "." + ts.Name.Name, dir: dir, name: ts.Name.Name})
			}
		}
		return out
	}
	return nil
}

func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// collect records every reference made inside node n of a file in dir, as
// made from the declaration keyed from.
func (idx refIndex) collect(dir string, imports map[string]string, n ast.Node, from string) {
	called := map[*ast.SelectorExpr]bool{}
	skip := map[*ast.Ident]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				called[sel] = true
			}
		case *ast.SelectorExpr:
			skip[x.Sel] = true
			if id, ok := x.X.(*ast.Ident); ok {
				if pkgDir, ok := imports[id.Name]; ok {
					skip[id] = true
					k := [2]string{pkgDir, x.Sel.Name}
					idx.pkg[k] = append(idx.pkg[k], from)
					return true
				}
			}
			if called[x] || !idx.fields[x.Sel.Name] {
				idx.methods[x.Sel.Name] = append(idx.methods[x.Sel.Name], from)
			}
		case *ast.BasicLit:
			// "Service.Method": a net/rpc call by name.
			if s, err := strconv.Unquote(x.Value); x.Kind == token.STRING && err == nil {
				if i := strings.LastIndexByte(s, '.'); i >= 0 && token.IsIdentifier(s[i+1:]) {
					idx.methods[s[i+1:]] = append(idx.methods[s[i+1:]], from)
				}
			}
		case *ast.Ident:
			if !skip[x] {
				k := [2]string{dir, x.Name}
				idx.pkg[k] = append(idx.pkg[k], from)
			}
		}
		return true
	})
}
