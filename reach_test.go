package dbabandits

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the declarations that no non-test file reaches but
// that stay, each with its reason. An entry is the public facade, a test
// oracle, or a constructor that several test packages share. An entry
// that is reached again, or that no longer exists, fails the check.
var reachAllow = map[string]string{
	"dbabandits.Advisor":                "facade: the advisor strategy's TunerKind",
	"dbabandits.Arm":                    "facade: a candidate index of the tuner",
	"dbabandits.DDQN":                   "facade: the DDQN strategy's TunerKind",
	"dbabandits.DDQNSC":                 "facade: the DDQN-SC strategy's TunerKind",
	"dbabandits.HTAP":                   "facade: the HTAP regime",
	"dbabandits.LoadServeCheckpoint":    "facade: reads a checkpoint file",
	"dbabandits.Policy":                 "facade: the strategy interface",
	"dbabandits.PolicyEnv":              "facade: what a strategy factory sees",
	"dbabandits.PolicyForgetter":        "facade: the forgetting capability",
	"dbabandits.PolicyNames":            "facade: the registered strategies",
	"dbabandits.PolicyParams":           "facade: a strategy's knobs",
	"dbabandits.PolicyRecommendation":   "facade: a strategy's decision",
	"dbabandits.PolicySnapshotter":      "facade: the checkpointing capability",
	"dbabandits.Predicate":              "facade: a query filter",
	"dbabandits.QueryStore":             "facade: the tuner's observed templates",
	"dbabandits.Random":                 "facade: the random regime",
	"dbabandits.RandomConfig":           "facade: the random strategy's TunerKind",
	"dbabandits.Recommendation":         "facade: the tuner's decision",
	"dbabandits.Regime":                 "facade: a workload regime",
	"dbabandits.RegisterPolicy":         "facade: adds a strategy",
	"dbabandits.RestoreServeCheckpoint": "facade: resumes from an in-memory checkpoint",
	"dbabandits.RoundResult":            "facade: one round's breakdown",
	"dbabandits.ServeCheckpointError":   "facade: the typed checkpoint refusal",
	"dbabandits.ServeCheckpointVersion": "facade: the checkpoint format version",
	"dbabandits.ServeGuardrailOptions":  "facade: the safety supervisor's settings",
	"dbabandits.ServeWindowReport":      "facade: a window's account",
	"dbabandits.Table":                  "facade: a table's definition",
	"query.Predicate.Matches":           "test oracle: the row-at-a-time reference for the storage scans",
	"query.Update.Touches":              "test oracle: the reference for the index maintenance fast path",
	"storage.Table.Selectivity":         "test oracle: the true selectivity the estimator is checked against",
	"linalg.SparseFromDense":            "constructor the linalg, mab and root tests share",
}

// TestNoUnreachedDeclarations fails on a declaration that only tests
// reach, and on an options or params field that only tests set. Both
// modules load, since bench/ consumes this one.
func TestNoUnreachedDeclarations(t *testing.T) {
	got, err := unreached([]reachModule{{"dbabandits", "."}, {"dbabandits/bench", "bench"}},
		"dbabandits/internal/testdb", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		t.Error(g)
	}
}

// TestUnreachedFixture runs the same check over testdata/reach, whose
// files each carry one case, so the check above cannot pass by finding
// nothing.
func TestUnreachedFixture(t *testing.T) {
	got, err := unreached([]reachModule{{"reach", "testdata/reach"}}, "reach/helper",
		map[string]string{"lib.Facade": "stands for a facade declaration"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.Helped: no non-test code reaches it",
		"lib.Options.Debug: no non-test code sets it",
		"lib.Unused: no non-test code reaches it",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// reachModule is one module the check loads: its path and directory.
type reachModule struct{ path, dir string }

// reachPkg is one type-checked package with its syntax.
type reachPkg struct {
	files []*ast.File
	info  *types.Info
	tp    *types.Package
}

// reachLoader type-checks the modules' non-test files, each package
// once, so that every reference resolves to the one object it names;
// the standard library comes from the source importer.
type reachLoader struct {
	fset *token.FileSet
	dirs map[string]*build.Package
	pkgs map[string]*reachPkg
	std  types.Importer
}

func (l *reachLoader) Import(p string) (*types.Package, error) {
	bp, ok := l.dirs[p]
	if !ok {
		return l.std.Import(p)
	}
	if pkg := l.pkgs[p]; pkg != nil {
		return pkg.tp, nil
	}
	pkg := &reachPkg{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		pkg.files = append(pkg.files, f)
	}
	conf := types.Config{Importer: l}
	var err error
	if pkg.tp, err = conf.Check(p, l.fset, pkg.files, pkg.info); err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	return pkg.tp, nil
}

// unreached loads every non-test package of mods and returns, sorted,
// each package-level func, method, const, var, type and struct field of
// a non-main package of mods[0] (skip aside) that no non-test file
// references, each exported field of an options or params struct that
// no non-test code sets, and each allow entry that is stale. skip is a
// test-helper package that only _test.go files import, so its own
// references and settings count as test code. A method that an
// interface in the program names is reached, and so are String() string
// and Error() string, which fmt calls.
func unreached(mods []reachModule, skip string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	l := &reachLoader{fset: fset, dirs: map[string]*build.Package{}, pkgs: map[string]*reachPkg{},
		std: importer.ForCompiler(fset, "source", nil)}
	for _, m := range mods {
		err := filepath.WalkDir(m.dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != m.dir {
				if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
				rel, _ := filepath.Rel(m.dir, p)
				l.dirs[path.Join(m.path, filepath.ToSlash(rel))] = bp
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for p := range l.dirs {
		if _, err := l.Import(p); err != nil {
			return nil, fmt.Errorf("load %s: %w", p, err)
		}
	}

	reached := map[types.Object]bool{}
	set := map[types.Object]bool{}
	// ifaces collects the interfaces the program's expressions mention,
	// down through composite types and signatures but not into the
	// underlying type of a named one.
	ifaces := map[*types.Interface]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Interface:
			ifaces[t] = true
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	for p, pkg := range l.pkgs {
		if p == skip {
			continue
		}
		info := pkg.info
		self := map[*ast.Ident]bool{}
		setField := func(e ast.Expr) {
			for {
				p, ok := e.(*ast.ParenExpr)
				if !ok {
					break
				}
				e = p.X
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					set[origin(s.Obj())] = true
				}
			}
		}
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// A function's calls of itself do not reach it.
					if fn := info.Defs[n.Name]; n.Body != nil {
						ast.Inspect(n.Body, func(m ast.Node) bool {
							if id, ok := m.(*ast.Ident); ok && info.Uses[id] == fn {
								self[id] = true
							}
							return true
						})
					}
				case *ast.CompositeLit:
					t := info.TypeOf(n)
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							set[origin(info.Uses[kv.Key.(*ast.Ident)])] = true
						} else {
							reached[origin(st.Field(i))] = true
							set[origin(st.Field(i))] = true
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						setField(e)
					}
				case *ast.IncDecStmt:
					setField(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setField(n.X)
					}
				}
				return true
			})
		}
		for id, o := range info.Uses {
			if !self[id] {
				reached[origin(o)] = true
			}
		}
		for _, tv := range info.Types {
			walk(tv.Type)
		}
	}

	found := map[string]string{}
	declared := map[string]bool{}
	report := func(name, why string) {
		declared[name] = true
		if why != "" {
			found[name] = why
		}
	}
	for p, pkg := range l.pkgs {
		if !strings.HasPrefix(p+"/", mods[0].path+"/") || p == skip || pkg.tp.Name() == "main" {
			continue
		}
		scope := pkg.tp.Scope()
		for _, n := range scope.Names() {
			o := scope.Lookup(n)
			name := pkg.tp.Name() + "." + n
			report(name, unreachedWhy(reached[o]))
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				report(name+"."+m.Name(), unreachedWhy(reached[m] || fmtMethod(m) || viaInterface(named, m, ifaces)))
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			options := strings.HasSuffix(n, "Options") || strings.HasSuffix(n, "Params")
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Embedded() || f.Name() == "_" {
					continue
				}
				why := unreachedWhy(reached[f])
				if why == "" && options && f.Exported() && !set[f] {
					why = "no non-test code sets it"
				}
				report(name+"."+f.Name(), why)
			}
		}
	}

	var out []string
	for name, why := range found {
		if allow[name] == "" {
			out = append(out, name+": "+why)
		}
	}
	for name := range allow {
		switch {
		case !declared[name]:
			out = append(out, name+": allowlisted but not declared")
		case found[name] == "":
			out = append(out, name+": allowlisted but reached")
		}
	}
	sort.Strings(out)
	return out, nil
}

func unreachedWhy(reached bool) string {
	if reached {
		return ""
	}
	return "no non-test code reaches it"
}

// origin maps a member of an instantiated generic type to its
// declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// fmtMethod reports whether m is String() string or Error() string.
func fmtMethod(m *types.Func) bool {
	return (m.Name() == "String" || m.Name() == "Error") && m.Type().String() == "func() string"
}

// viaInterface reports whether T or *T satisfies an interface that
// names m.
func viaInterface(t *types.Named, m *types.Func, ifaces map[*types.Interface]bool) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() && (types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
