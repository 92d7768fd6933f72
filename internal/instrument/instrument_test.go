package instrument

import (
	"strings"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/compiler"
	"tesla/internal/csub"
	"tesla/internal/ir"
	"tesla/internal/spec"
)

func compileUnit(t *testing.T, src string) (*compiler.Unit, *compiler.Context) {
	t.Helper()
	f, err := csub.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := compiler.NewContext(f)
	if err != nil {
		t.Fatal(err)
	}
	u, err := compiler.CompileFile(f, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return u, ctx
}

func countCalls(m *ir.Module, prefix string) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && strings.HasPrefix(in.Sym, prefix) {
					n++
				}
			}
		}
	}
	return n
}

const srcBasic = `
int check(int vp) { return 0; }
int body(int vp) {
	TESLA_SYSCALL_PREVIOUSLY(check(vp) == 0);
	return vp;
}
int amd64_syscall(int vp) {
	int c = check(vp);
	return body(vp);
}
`

func TestCalleeSideHooks(t *testing.T) {
	u, ctx := compileUnit(t, srcBasic)
	auto, err := automata.Compile(u.Assertions[0])
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := Module(u.Module, []*automata.Automaton{auto}, Options{DefinedFns: ctx.DefinedFns()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sites != 1 {
		t.Fatalf("sites = %d", stats.Sites)
	}
	if stats.Translators == 0 || stats.Hooks == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// check is defined in the module: callee-side exit hook in check's
	// own body, none around the call site.
	chk := m.Func("check")
	found := false
	for _, b := range chk.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && strings.HasPrefix(in.Sym, "__tesla_evt") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("callee-side exit hook missing in check")
	}
	// Bound hooks around amd64_syscall.
	if countCalls(m, "__tesla_bound_begin") != 1 || countCalls(m, "__tesla_bound_end") == 0 {
		t.Fatal("bound hooks missing")
	}
	// The input module is untouched.
	if countCalls(u.Module, "__tesla_bound_begin") != 0 {
		t.Fatal("instrumentation mutated the input module")
	}
}

// TestPassesShareUntouchedFuncs: Module and Strip write nothing they are
// given and copy only what they change. A function the plan does not hook
// and that holds no site is the input's own pointer, at its own index; a
// hooked one is a new function. The input module encodes to the same
// bytes before and after both passes.
func TestPassesShareUntouchedFuncs(t *testing.T) {
	src := `
int check(int vp) { return 0; }
int helper(int x) {
	int y = x * 2;
	return y + 1;
}
int body(int vp) {
	TESLA_SYSCALL_PREVIOUSLY(check(vp) == 0);
	return helper(vp);
}
int amd64_syscall(int vp) {
	int c = check(vp);
	return body(vp);
}
`
	u, ctx := compileUnit(t, src)
	auto, err := automata.Compile(u.Assertions[0])
	if err != nil {
		t.Fatal(err)
	}
	before := u.Module.AppendBinary(nil)
	m, _, err := Module(u.Module, []*automata.Automaton{auto}, Options{DefinedFns: ctx.DefinedFns()})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Module.AppendBinary(nil); string(got) != string(before) {
		t.Fatal("Module mutated the input module")
	}
	s := Strip(u.Module)
	if got := u.Module.AppendBinary(nil); string(got) != string(before) {
		t.Fatal("Strip mutated the input module")
	}
	if len(m.Funcs) <= len(u.Module.Funcs) {
		t.Fatalf("instrumented module has %d functions, input %d: no translators", len(m.Funcs), len(u.Module.Funcs))
	}
	// check gets an exit hook, body holds the site, amd64_syscall bounds
	// the assertion; the plan leaves helper alone. Strip rebuilds body only.
	hooked := map[string]bool{"check": true, "body": true, "amd64_syscall": true}
	for i, f := range u.Module.Funcs {
		if m.Funcs[i].Name != f.Name {
			t.Fatalf("instrumented function %d is %s, want %s at the input's index", i, m.Funcs[i].Name, f.Name)
		}
		if shared := m.Funcs[i] == f; shared == hooked[f.Name] {
			t.Errorf("Module: %s shared with the input = %t, want %t", f.Name, shared, !hooked[f.Name])
		}
		if shared := s.Funcs[i] == f; shared == (f.Name == "body") {
			t.Errorf("Strip: %s shared with the input = %t, want %t", f.Name, shared, f.Name != "body")
		}
	}
}

func TestCallerSideForUndefinedFn(t *testing.T) {
	src := `
int body(int vp) {
	int c = ext_check(vp);
	TESLA_SYSCALL_PREVIOUSLY(ext_check(vp) == 0);
	return vp;
}
int amd64_syscall(int vp) { return body(vp); }
`
	u, ctx := compileUnit(t, src)
	auto, err := automata.Compile(u.Assertions[0])
	if err != nil {
		t.Fatal(err)
	}
	// ext_check is not defined anywhere: caller-side instrumentation.
	defined := ctx.DefinedFns()
	m, _, err := Module(u.Module, []*automata.Automaton{auto}, Options{DefinedFns: defined})
	if err != nil {
		t.Fatal(err)
	}
	body := m.Func("body")
	var hookAfterCall bool
	for _, b := range body.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Sym == "ext_check" && i+1 < len(b.Instrs) {
				next := b.Instrs[i+1]
				if next.Op == ir.OpCall && strings.HasPrefix(next.Sym, "__tesla_evt") {
					hookAfterCall = true
				}
			}
		}
	}
	if !hookAfterCall {
		t.Fatal("caller-side exit hook not inserted after the call site")
	}
}

func TestStripRemovesSites(t *testing.T) {
	u, _ := compileUnit(t, srcBasic)
	if countCalls(u.Module, compiler.SitePseudoFn) != 1 {
		t.Fatal("pseudo-call missing before strip")
	}
	s := Strip(u.Module)
	if countCalls(s, compiler.SitePseudoFn) != 0 {
		t.Fatal("strip left pseudo-calls")
	}
}

func TestTranslatorStaticChecks(t *testing.T) {
	// Flags and bitmask patterns compile to mask-and-compare chains.
	src := `
#define IO_NOMACCHECK 128
int vn_rdwr(int vp, int flags) { return 0; }
int body(int vp) {
	TESLA_SYSCALL_PREVIOUSLY(called(vn_rdwr(vp, flags(IO_NOMACCHECK))));
	return 0;
}
int amd64_syscall(int vp) {
	int r = vn_rdwr(vp, 128);
	return body(vp);
}
`
	u, ctx := compileUnit(t, src)
	auto, err := automata.Compile(u.Assertions[0])
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Module(u.Module, []*automata.Automaton{auto}, Options{DefinedFns: ctx.DefinedFns()})
	if err != nil {
		t.Fatal(err)
	}
	var translator *ir.Func
	for _, f := range m.Funcs {
		if strings.HasPrefix(f.Name, "__tesla_evt") {
			translator = f
		}
	}
	if translator == nil {
		t.Fatal("translator not generated")
	}
	text := translator.String()
	if !strings.Contains(text, "and") || !strings.Contains(text, "condbr") {
		t.Fatalf("translator lacks flag checks:\n%s", text)
	}
	if !strings.Contains(text, "__tesla_update") {
		t.Fatalf("translator lacks update call:\n%s", text)
	}
}

func TestFieldStoreHooks(t *testing.T) {
	src := `
struct proc { int p_flag; };
int amd64_syscall(struct proc *p) {
	TESLA_SYSCALL(eventually(p.p_flag = 256));
	p->p_flag = 256;
	p->p_flag += 1;
	return 0;
}
`
	u, ctx := compileUnit(t, src)
	auto, err := automata.Compile(u.Assertions[0])
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := Module(u.Module, []*automata.Automaton{auto}, Options{DefinedFns: ctx.DefinedFns()})
	if err != nil {
		t.Fatal(err)
	}
	// Only the plain-assignment store is hooked; the compound one has a
	// different operator and does not match.
	fn := m.Func("amd64_syscall")
	hooks := 0
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpFieldStore && i+1 < len(b.Instrs) {
				next := b.Instrs[i+1]
				if next.Op == ir.OpCall && strings.HasPrefix(next.Sym, "__tesla_evt") {
					hooks++
				}
			}
		}
	}
	if hooks != 1 {
		t.Fatalf("field hooks = %d, want 1", hooks)
	}
	_ = stats
}

func TestExplicitSideModifiers(t *testing.T) {
	u, ctx := compileUnit(t, `
int lib(int x) { return 0; }
int body(int x) {
	TESLA_SYSCALL_PREVIOUSLY(caller(lib(x) == 0));
	return 0;
}
int amd64_syscall(int x) {
	int r = lib(x);
	return body(x);
}
`)
	auto, err := automata.Compile(u.Assertions[0])
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Module(u.Module, []*automata.Automaton{auto}, Options{DefinedFns: ctx.DefinedFns()})
	if err != nil {
		t.Fatal(err)
	}
	// caller() forces call-site hooks even though lib is defined here.
	libFn := m.Func("lib")
	for _, b := range libFn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && strings.HasPrefix(in.Sym, "__tesla_evt") {
				t.Fatal("caller modifier must not produce callee hooks")
			}
		}
	}
	caller := m.Func("amd64_syscall")
	found := false
	for _, b := range caller.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && strings.HasPrefix(in.Sym, "__tesla_evt") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("caller-side hook missing")
	}
}

func TestSuffixDisambiguatesTranslators(t *testing.T) {
	u, ctx := compileUnit(t, srcBasic)
	auto, err := automata.Compile(u.Assertions[0])
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := Module(u.Module, []*automata.Automaton{auto}, Options{DefinedFns: ctx.DefinedFns(), Suffix: "__m0"})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Module(u.Module, []*automata.Automaton{auto}, Options{DefinedFns: ctx.DefinedFns(), Suffix: "__m1"})
	if err != nil {
		t.Fatal(err)
	}
	m2.Funcs = m2.Funcs[len(u.Module.Funcs):] // keep only generated translators
	if _, err := ir.Link("prog", m1, m2); err != nil {
		t.Fatalf("suffixed translators should link: %v", err)
	}
}

func TestUnmatchedSiteIsRemoved(t *testing.T) {
	u, _ := compileUnit(t, srcBasic)
	// Instrument against a different automaton: the site pseudo-call has
	// no automaton and is dropped.
	other := automata.MustCompile(spec.SyscallPreviously("other", spec.Call("zzz").ReturnsInt(0)))
	m, stats, err := Module(u.Module, []*automata.Automaton{other}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sites != 0 {
		t.Fatalf("sites = %d", stats.Sites)
	}
	if countCalls(m, compiler.SitePseudoFn) != 0 {
		t.Fatal("unmatched pseudo-call left behind")
	}
}

const srcTwoAutos = `
int check(int vp) { return 0; }
int audit(int vp) { return 0; }
int body(int vp) {
	TESLA_SYSCALL_PREVIOUSLY(check(vp) == 0);
	TESLA_SYSCALL_PREVIOUSLY(called(audit(vp)));
	return vp;
}
int amd64_syscall(int vp) {
	int c = check(vp);
	int a = audit(vp);
	return body(vp);
}
`

func twoAutos(t *testing.T) (*compiler.Unit, *compiler.Context, []*automata.Automaton) {
	t.Helper()
	u, ctx := compileUnit(t, srcTwoAutos)
	var autos []*automata.Automaton
	for _, a := range u.Assertions {
		auto, err := automata.Compile(a)
		if err != nil {
			t.Fatal(err)
		}
		autos = append(autos, auto)
	}
	if len(autos) != 2 {
		t.Fatalf("autos = %d, want 2", len(autos))
	}
	return u, ctx, autos
}

// TestElisionInvariant checks the accounting contract: for any elision
// choice, every hook the full build inserts is either inserted or counted
// as elided — never silently dropped.
func TestElisionInvariant(t *testing.T) {
	u, ctx, autos := twoAutos(t)
	_, full, err := Module(u.Module, autos, Options{DefinedFns: ctx.DefinedFns()})
	if err != nil {
		t.Fatal(err)
	}
	if full.ElidedHooks != 0 || full.ElidedSites != 0 {
		t.Fatalf("full build elided something: %+v", full)
	}
	for _, elide := range []map[string]bool{
		{autos[0].Name: true},
		{autos[1].Name: true},
		{autos[0].Name: true, autos[1].Name: true},
	} {
		_, st, err := Module(u.Module, autos, Options{DefinedFns: ctx.DefinedFns(), Elide: elide})
		if err != nil {
			t.Fatal(err)
		}
		if st.Hooks+st.ElidedHooks != full.Hooks {
			t.Errorf("elide %v: hooks %d + elided %d != full %d", elide, st.Hooks, st.ElidedHooks, full.Hooks)
		}
		if st.Sites+st.ElidedSites != full.Sites {
			t.Errorf("elide %v: sites %d + elided %d != full %d", elide, st.Sites, st.ElidedSites, full.Sites)
		}
		if st.ElidedHooks == 0 {
			t.Errorf("elide %v: nothing elided", elide)
		}
	}
}

// TestElideOneKeepsOther verifies per-automaton selectivity: eliding one
// automaton removes exactly its translators while the other automaton's
// hooks, bound events, and site survive with their original indices.
func TestElideOneKeepsOther(t *testing.T) {
	u, ctx, autos := twoAutos(t)
	m, st, err := Module(u.Module, autos, Options{
		DefinedFns: ctx.DefinedFns(),
		Elide:      map[string]bool{autos[0].Name: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if countCalls(m, "__tesla_evt_0_") != 0 {
		t.Fatal("elided automaton 0 still has event hooks")
	}
	if countCalls(m, "__tesla_evt_1_") == 0 {
		t.Fatal("surviving automaton 1 lost its event hooks")
	}
	// The surviving automaton still opens and closes its bound.
	if countCalls(m, "__tesla_bound_begin") == 0 || countCalls(m, "__tesla_bound_end") == 0 {
		t.Fatal("surviving automaton lost bound hooks")
	}
	if st.Sites != 1 || st.ElidedSites != 1 {
		t.Fatalf("sites = %d elided = %d, want 1/1", st.Sites, st.ElidedSites)
	}
	// Elided translators are not generated at all.
	for _, f := range m.Funcs {
		if strings.HasPrefix(f.Name, "__tesla_evt_0_") {
			t.Fatalf("translator %s generated for elided automaton", f.Name)
		}
	}
}

// TestElideAll leaves a module with no instrumentation calls at all; the
// elided site collapses to a constant 0 so the program still runs.
func TestElideAll(t *testing.T) {
	u, ctx, autos := twoAutos(t)
	m, st, err := Module(u.Module, autos, Options{
		DefinedFns: ctx.DefinedFns(),
		Elide:      map[string]bool{autos[0].Name: true, autos[1].Name: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hooks != 0 || st.Sites != 0 || st.Translators != 0 {
		t.Fatalf("full elision left instrumentation: %+v", st)
	}
	if countCalls(m, "__tesla") != 0 {
		t.Fatal("full elision left __tesla calls")
	}
	if countCalls(m, compiler.SitePseudoFn) != 0 {
		t.Fatal("site pseudo-call survived")
	}
}

// TestElideFieldAndCallerHooks covers the two remaining insertion paths:
// field-store hooks and caller-side hooks for undefined callees.
func TestElideFieldAndCallerHooks(t *testing.T) {
	src := `
struct proc { int p_flag; };
int body(int x) {
	int r = ext_check(x);
	TESLA_SYSCALL_PREVIOUSLY(ext_check(x) == 0);
	return 0;
}
int amd64_syscall(struct proc *p) {
	TESLA_SYSCALL(eventually(p.p_flag = 256));
	p->p_flag = 256;
	return body(0);
}
`
	u, ctx := compileUnit(t, src)
	var autos []*automata.Automaton
	for _, a := range u.Assertions {
		auto, err := automata.Compile(a)
		if err != nil {
			t.Fatal(err)
		}
		autos = append(autos, auto)
	}
	_, full, err := Module(u.Module, autos, Options{DefinedFns: ctx.DefinedFns()})
	if err != nil {
		t.Fatal(err)
	}
	elide := map[string]bool{}
	for _, a := range autos {
		elide[a.Name] = true
	}
	m, st, err := Module(u.Module, autos, Options{DefinedFns: ctx.DefinedFns(), Elide: elide})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hooks+st.ElidedHooks != full.Hooks || st.Hooks != 0 {
		t.Fatalf("stats = %+v, full = %+v", st, full)
	}
	if countCalls(m, "__tesla") != 0 {
		t.Fatal("field/caller elision left __tesla calls")
	}
}
