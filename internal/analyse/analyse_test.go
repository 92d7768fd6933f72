package analyse

import (
	"reflect"
	"strings"
	"testing"

	"tesla/internal/build"
	"tesla/internal/manifest"
)

// lintSources builds sources through the build graph and lints the result.
func lintSources(sources map[string]string) ([]Warning, error) {
	res, err := build.Run(sources, build.Options{})
	if err != nil {
		return nil, err
	}
	return Lint(res)
}

func TestSources(t *testing.T) {
	res, err := build.Run(map[string]string{
		"a.c": `
int f(int x) {
	TESLA_SYSCALL_PREVIOUSLY(check(x) == 0);
	return x;
}
`,
		"b.c": `
int g(int y) {
	TESLA_WITHIN(main, eventually(audit(y) == 0));
	TESLA_WITHIN(main, previously(check(y) == 0));
	return y;
}
`,
		"c.c": `int plain(int z) { return z; }`,
	}, build.Options{})
	if err != nil {
		t.Fatal(err)
	}
	perFile := map[string]*manifest.File{}
	for i, name := range res.Names {
		perFile[name] = res.Fragments[i]
	}
	combined := res.Manifest
	if len(perFile["a.c"].Assertions) != 1 || len(perFile["b.c"].Assertions) != 2 || len(perFile["c.c"].Assertions) != 0 {
		t.Fatalf("per-file counts wrong: %+v", perFile)
	}
	if len(combined.Assertions) != 3 {
		t.Fatalf("combined = %d", len(combined.Assertions))
	}
	// Names carry file:line positions.
	if !strings.HasPrefix(perFile["a.c"].Assertions[0].Name, "a.c:") {
		t.Fatalf("name = %q", perFile["a.c"].Assertions[0].Name)
	}
	// The combined manifest compiles.
	if _, err := combined.Compile(); err != nil {
		t.Fatal(err)
	}
}

func TestSourcesErrors(t *testing.T) {
	if _, err := build.Run(map[string]string{"bad.c": "int f( {"}, build.Options{}); err == nil {
		t.Fatal("parse error must propagate")
	}
	if _, err := build.Run(map[string]string{"bad.c": `
int f(int x) {
	TESLA_WITHIN(main, previously(check(undeclared_var) == 0));
	return x;
}
`}, build.Options{}); err == nil {
		t.Fatal("out-of-scope assertion variable must fail analysis")
	}
}

func TestLint(t *testing.T) {
	warnings, err := lintSources(map[string]string{"a.c": `
int check(int x) { return 0; }
int amd64_syscall(int x) {
	int c = check(x);
	TESLA_SYSCALL_PREVIOUSLY(check(x) == 0);
	TESLA_SYSCALL_PREVIOUSLY(chekc(x) == 0);
	TESLA_WITHIN(no_such_bound, previously(check(x) == 0));
	TESLA_SYSCALL(incallstack(never_defined) || previously(check(x) == 0));
	return c;
}
`})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, w := range warnings {
		msgs = append(msgs, w.String())
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{`"chekc"`, `"no_such_bound"`, `"never_defined"`} {
		if !strings.Contains(joined, want) {
			t.Errorf("lint missing %s in:\n%s", want, joined)
		}
	}
	// The healthy assertion produces no warning.
	if strings.Contains(joined, `"check"`) {
		t.Errorf("false positive on defined function:\n%s", joined)
	}
	if len(warnings) != 3 {
		t.Errorf("warnings = %d:\n%s", len(warnings), joined)
	}
}

func TestLintExternalCallIsKnown(t *testing.T) {
	// A function that is only *called* (defined in a library outside the
	// program) still counts: caller-side instrumentation can observe it.
	warnings, err := lintSources(map[string]string{"a.c": `
int amd64_syscall(int x) {
	int c = ext_check(x);
	TESLA_SYSCALL_PREVIOUSLY(ext_check(x) == 0);
	return c;
}
`})
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("warnings = %v", warnings)
	}
}

func TestLintFieldEvents(t *testing.T) {
	warnings, err := lintSources(map[string]string{"a.c": `
struct proc { int p_flag; };
int amd64_syscall(struct proc *p) {
	TESLA_SYSCALL(eventually(p.p_flag = 1));
	p->p_flag = 1;
	return 0;
}
`, "b.c": `
struct proc2 { int other; };
int helper(struct proc2 *p) {
	TESLA_SYSCALL(eventually(p.missing = 1));
	return 0;
}
`})
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, w := range warnings {
		joined += w.String() + "\n"
	}
	// The resolvable field is clean; the missing one is flagged.
	if strings.Contains(joined, "p_flag") {
		t.Errorf("false positive on defined field:\n%s", joined)
	}
	if !strings.Contains(joined, `no field "missing"`) {
		t.Errorf("missing-field warning absent:\n%s", joined)
	}
}

func TestLintDescendsIntoIndexExprs(t *testing.T) {
	// The only call to check() hides inside an index expression; the
	// lint walker must still see it.
	warnings, err := lintSources(map[string]string{"a.c": `
struct pair { int a; int b; };
int amd64_syscall(struct pair *p, int x) {
	p[check(x)] = p[also_called(x)];
	p[0] += later(x);
	TESLA_SYSCALL_PREVIOUSLY(check(x) == 0);
	TESLA_SYSCALL_PREVIOUSLY(also_called(x) == 0);
	TESLA_SYSCALL_PREVIOUSLY(later(x) == 0);
	return 0;
}
`})
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("warnings = %v", warnings)
	}
}

func TestLintSourcesMultiFileDeterministic(t *testing.T) {
	sources := map[string]string{
		"z.c": `
int do_work(int x) {
	TESLA_WITHIN(main, previously(lib_fn(ANY(int))));
	TESLA_WITHIN(main, previously(nowhere(ANY(int))));
	return x;
}
`,
		"a.c": `
int lib_fn(int x) { return 0; }
int main(int x) {
	int r = lib_fn(x);
	return do_work(x);
}
`,
	}
	var first []Warning
	for i := 0; i < 5; i++ {
		warnings, err := lintSources(sources)
		if err != nil {
			t.Fatal(err)
		}
		// lib_fn is defined in the other file: resolved, no warning.
		for _, w := range warnings {
			if strings.Contains(w.Message, "lib_fn") {
				t.Fatalf("cross-file callee not resolved: %v", w)
			}
		}
		if len(warnings) != 1 || !strings.Contains(warnings[0].Message, `"nowhere"`) {
			t.Fatalf("warnings = %v", warnings)
		}
		if i == 0 {
			first = warnings
		} else if len(warnings) != len(first) || warnings[0] != first[0] {
			t.Fatalf("lint output not deterministic: %v vs %v", warnings, first)
		}
	}
}

func TestLintProgramSurfacesVerdicts(t *testing.T) {
	res, err := build.Run(map[string]string{"a.c": `
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(ANY(int))));
	return x;
}
int main(int x) { return do_work(x); }
`}, build.Options{Check: true, Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	warnings, err := Lint(res)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	// The plain lint is silent (the function exists), but the checker
	// proves the assertion doomed.
	if len(warnings) != 1 || !strings.Contains(warnings[0].Message, "provably failing") {
		t.Fatalf("warnings = %v", warnings)
	}
	if rep == nil || len(rep.Results) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if _, failing, _ := rep.Counts(); failing != 1 {
		t.Fatalf("counts = %v", rep.Results[0].Verdict)
	}
}

// TestLintWarmCache lints a build served entirely from a warm disk cache —
// no file is parsed, so the lint sees only cached IR and manifests — and
// expects exactly the cold build's warnings, checker verdicts included.
func TestLintWarmCache(t *testing.T) {
	sources := map[string]string{
		"a.c": `
struct proc { int p_flag; };
int security_check(int x) { return 0; }
int do_work(struct proc *p, int x) {
	TESLA_WITHIN(main, previously(security_check(ANY(int))));
	TESLA_WITHIN(main, previously(nowhere(ANY(int))));
	TESLA_WITHIN(main, eventually(p.missing = 1));
	return lib_fn(x);
}
`,
		"b.c": `
int lib_fn(int x) { return x; }
int main(int x) { return do_work(alloc(proc), x); }
`,
	}
	dir := t.TempDir()
	lint := func() ([]Warning, *build.Result) {
		cache, err := build.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := build.Run(sources, build.Options{Check: true, Entry: "main", Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		warnings, err := Lint(res)
		if err != nil {
			t.Fatal(err)
		}
		return warnings, res
	}
	cold, _ := lint()
	warm, res := lint()
	for i, f := range res.Files {
		if f != nil {
			t.Fatalf("warm build parsed %s", res.Names[i])
		}
	}
	if len(cold) != 5 || !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm lint differs from cold:\ncold %v\nwarm %v", cold, warm)
	}
}
