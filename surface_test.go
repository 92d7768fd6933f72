package tesla

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lists the declarations the exported-surface check lets stand
// although no non-test code uses them, keyed as the check names them:
// "<dir>.<Name>", "<dir>.<Type>.<Method>" or "<dir>.<Opts>.<Field>". Each
// entry carries its reason; an entry that names nothing, or names something
// the program does use, fails the check.
var surfaceAllow = map[string]string{
	// The spec builder mirrors the assertion grammar of fig. 5 one
	// constructor per production, whether or not a shipped assertion uses it.
	"internal/spec.GlobalWithin":   "fig. 5 grammar constructor: TESLA_GLOBAL with a function bound",
	"internal/spec.TSequence":      "fig. 5 grammar constructor: TSEQUENCE",
	"internal/spec.Xor":            "fig. 5 grammar constructor: exclusive or",
	"internal/spec.MsgReturn":      "fig. 5 grammar constructor: Objective-C message return",
	"internal/spec.FieldAddAssign": "fig. 5 grammar constructor: field += value",
	"internal/spec.FieldIncr":      "fig. 5 grammar constructor: field++",
	"internal/spec.Deref":          "fig. 5 grammar constructor: pointer dereference",

	// §3.5.2: facilities whose assertions FreeBSD's test suite never
	// reached. The kernel keeps them so the coverage finding reproduces.
	"internal/kernel.Thread.Procfs":    "§3.5.2 unexercised facility: procfs",
	"internal/kernel.Thread.CpusetGet": "§3.5.2 unexercised facility: CPUSET",
	"internal/kernel.Thread.CpusetSet": "§3.5.2 unexercised facility: CPUSET",
	"internal/kernel.Thread.Rtprio":    "§3.5.2 unexercised facility: POSIX real-time scheduling",

	// Fault-injection seams and the injector API that other packages'
	// tests drive; an export_test.go serves only its own package.
	"internal/trace.SpoolOpts.WriteFault":   "fault-injection seam: the spool tests fail writes through it",
	"internal/trace.SpoolOpts.SyncFault":    "fault-injection seam: the spool tests fail fsyncs through it",
	"internal/faultinject.Injector.SetRate": "injector API: the core chaos tests set failure rates",
	"internal/faultinject.Injector.Fired":   "injector API: the core and trace tests count fired faults",
	"internal/faultinject.SiteHandlerPanic": "injector site: the core chaos tests panic handlers",
	"internal/faultinject.SiteTraceDrop":    "injector site: the trace recorder tests drop events",
	"internal/faultinject.SiteWALWrite":     "injector site: the spool tests fail writes",
	"internal/faultinject.SiteWALSync":      "injector site: the spool tests fail fsyncs",

	// References and introspection that tests in other packages compare
	// against.
	"internal/dtrace.Summarize":            "offline reference aggregation: the agg, trace and monitor parity tests hold live and fleet results to it",
	"internal/dtrace.Aggregation.Snapshot": "reads a Summarize result in the trace and monitor parity tests",
	"internal/core.Store.Instances":        "introspection: the monitor's clone/cleanup interleaving test checks the global store's live keys",
	"internal/core.TransitionSet.HasInit":  "introspection: the automata lowering test checks each compiled plan's «init» against its transition set",
	"internal/core.SymbolPlan.HasInit":     "introspection: the automata lowering test checks each compiled plan's «init» against its transition set",
}

// TestExportedSurfaceUsed holds the tree's declarations to what its
// non-test code uses. It type-checks every non-test package in the tree
// from source (commands, examples and the cmd/tesla-perf module included;
// the standard library comes from its export data) and fails on:
//
//   - an exported package-level declaration or exported method in
//     internal/ that no non-test file references;
//   - an unexported package-level declaration or method that no non-test
//     file references;
//   - an exported field of an internal/ *Opts or *Options struct that no
//     non-test file outside its package sets.
//
// A use from the declaration's own package counts, but not one from inside
// the declaration itself, nor a method receiver naming its own type. A
// method also counts as used when its type implements an interface that
// non-test code references, or one the standard library probes for
// (dynamicIfaces): the method may be called through it. Uses of generic
// instantiations count for their origin.
func TestExportedSurfaceUsed(t *testing.T) {
	tree, err := loadSurfaceTree(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, stale, counts := tree.check(surfaceAllow)
	t.Logf("internal/: %d exported declarations, %d exported option fields", counts[0], counts[1])
	for _, f := range findings {
		t.Error(f)
	}
	for _, s := range stale {
		t.Error(s)
	}
}

// surfacePkg is one non-test package of the tree.
type surfacePkg struct {
	rel   string // directory relative to the tree root, "/"-separated
	files []*ast.File
	deps  []string
	types *types.Package
	info  *types.Info
}

type surfaceTree struct {
	fset  *token.FileSet
	pkgs  map[string]*surfacePkg
	order []*surfacePkg // dependencies first
	std   types.Importer
}

// loadSurfaceTree parses and type-checks every non-test package under root.
// Import paths follow directories from the root module's path, which also
// holds for the nested cmd/tesla-perf module (its module path is its
// directory).
func loadSurfaceTree(root string) (*surfaceTree, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	tr := &surfaceTree{fset: token.NewFileSet(), pkgs: map[string]*surfacePkg{}}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel := filepath.ToSlash(dir)
		path := modPath
		if rel != "." {
			path += "/" + rel
		}
		p := &surfacePkg{rel: rel, deps: bp.Imports}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(tr.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		tr.pkgs[path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tr.stdImporter(root); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(tr.pkgs))
	for path := range tr.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := tr.Import(path); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// stdImporter reads the standard library from export data, located by one
// `go list -export` over every standard package the tree imports. The
// export data must come from the toolchain whose go/types reads it; `go
// test` puts that toolchain's bin directory first on the test's PATH, so
// "go" names it even under `make GO=<other go>`.
func (tr *surfaceTree) stdImporter(root string) error {
	need := map[string]bool{}
	for _, p := range tr.pkgs {
		for _, dep := range p.deps {
			if tr.pkgs[dep] == nil && dep != "unsafe" {
				need[dep] = true
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for dep := range need {
		args = append(args, dep)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			export[path] = file
		}
	}
	tr.std = importer.ForCompiler(tr.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	return nil
}

// Import type-checks a tree package on first use, after its imports.
func (tr *surfaceTree) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	p := tr.pkgs[path]
	if p == nil {
		return tr.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: tr}
	pkg, err := conf.Check(path, tr.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = pkg
	tr.order = append(tr.order, p)
	return pkg, nil
}

// origin maps an object of a generic instantiation to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// surfaceDecl is one declaration the check judges.
type surfaceDecl struct {
	obj  types.Object
	key  string // allowlist key
	kind string
	span [2]token.Pos // the declaration, whose own uses do not count
	opt  bool         // an option field: judged by sets, not uses
}

// check returns the findings, the stale allowlist entries, and the counts
// of exported declarations and exported option fields in internal/.
func (tr *surfaceTree) check(allow map[string]string) (findings, stale []string, counts [2]int) {
	var decls []*surfaceDecl
	byObj := map[types.Object]*surfaceDecl{}
	recvIdents := map[*ast.Ident]bool{} // receiver type names, not uses
	for _, p := range tr.order {
		internal := p.rel == "internal" || strings.HasPrefix(p.rel, "internal/")
		add := func(id *ast.Ident, key, kind string, span ast.Node) {
			obj := p.info.Defs[id]
			if obj == nil || id.Name == "_" {
				return
			}
			d := &surfaceDecl{obj: obj, key: p.rel + "." + key, kind: kind, span: [2]token.Pos{span.Pos(), span.End()}}
			decls = append(decls, d)
			byObj[obj] = d
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					name := decl.Name.Name
					if decl.Recv == nil {
						if name == "init" || (name == "main" && p.types.Name() == "main") {
							continue
						}
						if token.IsExported(name) && !internal {
							continue
						}
						add(decl.Name, name, "func", decl)
						continue
					}
					recv := recvTypeIdent(decl.Recv.List[0].Type)
					recvIdents[recv] = true
					if internal || !token.IsExported(name) {
						add(decl.Name, recv.Name+"."+name, "method", decl)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if token.IsExported(spec.Name.Name) && !internal {
								continue
							}
							add(spec.Name, spec.Name.Name, "type", spec)
							if internal && isOptsName(spec.Name.Name) {
								decls = append(decls, optFields(p, spec)...)
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if token.IsExported(id.Name) && !internal {
									continue
								}
								add(id, id.Name, decl.Tok.String(), spec)
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, p := range tr.order {
		for id, obj := range p.info.Uses {
			if recvIdents[id] {
				continue
			}
			obj = origin(obj)
			if d := byObj[obj]; d != nil && d.span[0] <= id.Pos() && id.Pos() < d.span[1] {
				continue
			}
			used[obj] = true
		}
	}
	tr.markInterfaceMethods(used)
	set := tr.optionSets()

	for _, d := range decls {
		switch {
		case d.opt:
			counts[1]++
		case d.obj.Exported() && strings.HasPrefix(d.key, "internal/"):
			counts[0]++
		}
		if d.opt {
			if set[d.obj] {
				continue
			}
		} else if used[d.obj] {
			continue
		}
		if _, ok := allow[d.key]; ok {
			continue
		}
		what := "is used by no non-test file"
		if d.opt {
			what = "is set by no non-test file"
		}
		findings = append(findings, fmt.Sprintf("%s: %s %s %s", tr.fset.Position(d.obj.Pos()), d.kind, d.key, what))
	}
	sort.Strings(findings)

	known := map[string]*surfaceDecl{}
	for _, d := range decls {
		known[d.key] = d
	}
	for key := range allow {
		d := known[key]
		switch {
		case d == nil:
			stale = append(stale, fmt.Sprintf("surfaceAllow entry %q names no declaration", key))
		case d.opt && set[d.obj], !d.opt && used[d.obj]:
			stale = append(stale, fmt.Sprintf("surfaceAllow entry %q names a declaration the program uses", key))
		}
	}
	sort.Strings(stale)
	return findings, stale, counts
}

func recvTypeIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			panic(fmt.Sprintf("receiver type %T", x))
		}
	}
}

func isOptsName(name string) bool {
	return strings.HasSuffix(name, "Opts") || strings.HasSuffix(name, "Options")
}

// optFields returns the exported fields of an options struct.
func optFields(p *surfacePkg, spec *ast.TypeSpec) []*surfaceDecl {
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		return nil
	}
	var out []*surfaceDecl
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if token.IsExported(id.Name) {
				key := p.rel + "." + spec.Name.Name + "." + id.Name
				out = append(out, &surfaceDecl{obj: p.info.Defs[id], key: key, kind: "option field", opt: true})
			}
		}
	}
	return out
}

// optionSets returns the struct fields that non-test code outside their
// own package sets: keyed or positional in a composite literal, assigned,
// incremented or addressed. The declaring package's own sets are its
// defaults, not a caller's choice.
func (tr *surfaceTree) optionSets() map[types.Object]bool {
	set := map[types.Object]bool{}
	for _, p := range tr.order {
		setBy := func(obj *types.Var) {
			if obj.Pkg() != p.types {
				set[obj.Origin()] = true
			}
		}
		field := func(x ast.Expr) {
			x = ast.Unparen(x)
			if sel, ok := x.(*ast.SelectorExpr); ok {
				if obj, ok := p.info.Uses[sel.Sel].(*types.Var); ok && obj.IsField() {
					setBy(obj)
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, _ := p.info.Types[n].Type.Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if obj, ok := p.info.Uses[id].(*types.Var); ok && obj.IsField() {
									setBy(obj)
								}
							}
						} else if st != nil {
							setBy(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						field(lhs)
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				}
				return true
			})
		}
	}
	return set
}

// dynamicIfaces lists, by package, the standard-library interfaces that
// the standard library itself probes for with a type assertion, so a
// method satisfying one is reachable although the code never names the
// interface.
var dynamicIfaces = map[string][]string{
	"fmt":           {"Stringer", "GoStringer", "Formatter"},
	"encoding":      {"TextMarshaler", "TextUnmarshaler", "BinaryMarshaler", "BinaryUnmarshaler"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
}

// markInterfaceMethods marks as used each method through which a
// referenced interface, or one the standard library probes for, can reach
// a tree type. An interface is referenced when non-test code names it or
// an expression, variable, field or function it uses has it in its type
// (a parameter of type io.Writer references io.Writer).
func (tr *surfaceTree) markInterfaceMethods(used map[types.Object]bool) {
	ifaces := map[*types.Interface]bool{}
	var addType func(t types.Type)
	addType = func(t types.Type) {
		switch t := t.(type) {
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					addType(tup.At(i).Type())
				}
			}
		case *types.Pointer:
			addType(t.Elem())
		case *types.Slice:
			addType(t.Elem())
		case *types.Array:
			addType(t.Elem())
		case *types.Chan:
			addType(t.Elem())
		case *types.Map:
			addType(t.Key())
			addType(t.Elem())
		default:
			if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
	}
	addType(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var stdProbes func(pkg *types.Package)
	stdProbes = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range dynamicIfaces[pkg.Path()] {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addType(tn.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			stdProbes(dep)
		}
	}
	var named []*types.Named
	for _, p := range tr.order {
		stdProbes(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addType(tv.Type)
			}
		}
		for _, obj := range p.info.Uses {
			switch obj.(type) {
			case *types.TypeName, *types.Var, *types.Func:
				addType(obj.Type())
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					if _, isIface := n.Underlying().(*types.Interface); !isIface {
						named = append(named, n)
					}
				}
			}
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
					used[origin(sel.Obj())] = true
				}
			}
		}
	}
}
