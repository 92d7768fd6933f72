package compiler

import (
	"strings"
	"testing"

	"tesla/internal/csub"
	"tesla/internal/ir"
)

func ctxFor(t *testing.T, srcs map[string]string) (*Context, []*csub.File) {
	t.Helper()
	var files []*csub.File
	for name, src := range srcs {
		f, err := csub.Parse(name, src)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	ctx, err := NewContext(files...)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, files
}

func TestContextRejectsDuplicates(t *testing.T) {
	a, _ := csub.Parse("a.c", `int f() { return 0; }`)
	b, _ := csub.Parse("b.c", `int f() { return 1; }`)
	if _, err := NewContext(a, b); err == nil {
		t.Fatal("duplicate function must fail")
	}
	a2, _ := csub.Parse("a.c", `struct s { int v; };`)
	b2, _ := csub.Parse("b.c", `struct s { int v; };`)
	if _, err := NewContext(a2, b2); err == nil {
		t.Fatal("duplicate struct must fail")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`int f() { x = 1; return 0; }`, "undeclared variable"},
		{`int f(int a) { return a->field; }`, "non-pointer"},
		{`struct s { int v; }; int f(struct s *p) { return p->nope; }`, "no field"},
		{`int f(struct missing *p) { return p->v; }`, "unknown struct"},
		{`int f() { struct gone *p = alloc(gone); return 0; }`, "unknown struct"},
		{`int f(int vp) { TESLA_SYSCALL_PREVIOUSLY(check(other) == 0); return 0; }`, "not in scope"},
		{`int f(int vp) { TESLA_SYSCALL_PREVIOUSLY(bogus grammar); return 0; }`, "spec"},
	}
	for i, c := range cases {
		f, err := csub.Parse("e.c", c.src)
		if err != nil {
			t.Fatalf("case %d parse: %v", i, err)
		}
		ctx, err := NewContext(f)
		if err != nil {
			t.Fatalf("case %d ctx: %v", i, err)
		}
		_, err = CompileFile(f, ctx)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want %q", i, err, c.want)
		}
	}
}

func TestParamsSpilledToAllocas(t *testing.T) {
	ctx, files := ctxFor(t, map[string]string{"p.c": `
int f(int a, int b) {
	a = a + b;
	return a;
}`})
	u, err := CompileFile(files[0], ctx)
	if err != nil {
		t.Fatal(err)
	}
	f := u.Module.Func("f")
	if f.NParams != 2 {
		t.Fatalf("NParams = %d", f.NParams)
	}
	// clang -O0 shape: one alloca+store per parameter at entry.
	allocas, stores := 0, 0
	for _, in := range f.Blocks[0].Instrs[:4] {
		switch in.Op {
		case ir.OpAlloca:
			allocas++
		case ir.OpStore:
			stores++
		}
	}
	if allocas != 2 || stores != 2 {
		t.Fatalf("entry shape: %d allocas, %d stores\n%s", allocas, stores, f.String())
	}
}

func TestFieldStoreCarriesAssignKind(t *testing.T) {
	ctx, files := ctxFor(t, map[string]string{"p.c": `
struct s { int n; };
int f(struct s *p) {
	p->n = 1;
	p->n += 2;
	p->n++;
	return 0;
}`})
	u, err := CompileFile(files[0], ctx)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []ir.AssignKind
	for _, b := range u.Module.Func("f").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpFieldStore {
				kinds = append(kinds, in.Assign)
			}
		}
	}
	want := []ir.AssignKind{ir.AssignSet, ir.AssignAdd, ir.AssignIncr}
	if len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Fatalf("assign kinds = %v", kinds)
	}
}

func TestAssertionEnvResolution(t *testing.T) {
	// #defines resolve to constants; struct-typed scope vars resolve field
	// events; the site pseudo-call carries scope values in Vars order.
	ctx, files := ctxFor(t, map[string]string{"p.c": `
#define LIMIT 64
struct q { int depth; };
int f(struct q *qq, int n) {
	TESLA_SYSCALL(eventually(qq.depth = LIMIT));
	qq->depth = LIMIT;
	return n;
}`})
	u, err := CompileFile(files[0], ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Assertions) != 1 {
		t.Fatalf("assertions = %d", len(u.Assertions))
	}
	text := u.Assertions[0].String()
	if !strings.Contains(text, "q::qq.depth = 64") {
		t.Fatalf("assertion text = %q", text)
	}
	// The site pseudo-call exists and passes one scope value (qq).
	found := false
	for _, b := range u.Module.Func("f").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && strings.HasPrefix(in.Sym, SitePseudoFn) {
				found = true
				if len(in.Args) != 1 {
					t.Fatalf("site args = %d", len(in.Args))
				}
			}
		}
	}
	if !found {
		t.Fatal("site pseudo-call missing")
	}
}

func TestShadowedFunctionNameCallsThroughVariable(t *testing.T) {
	// A local variable shadowing a function name produces an indirect call.
	ctx, files := ctxFor(t, map[string]string{"p.c": `
int target(int x) { return x + 1; }
int f(int n) {
	int target = 5;
	int r = target + n;
	return r;
}`})
	if _, err := CompileFile(files[0], ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCompileLinksProgram(t *testing.T) {
	ctx, files := ctxFor(t, map[string]string{
		"a.c": `int f(int x) { return g(x) + 1; }`,
		"b.c": `int g(int x) { return x * 2; }`,
	})
	var mods []*ir.Module
	for _, f := range files {
		u, err := CompileFile(f, ctx)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, u.Module)
	}
	prog, err := ir.Link("program", mods...)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 2 {
		t.Fatalf("funcs=%d", len(prog.Funcs))
	}
}
