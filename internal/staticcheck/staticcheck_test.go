package staticcheck_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tesla/internal/staticcheck"
	"tesla/internal/toolchain"
)

// checkSources builds sources through the build graph with the checker on
// and returns its verdicts.
func checkSources(sources map[string]string, entry string) (*staticcheck.Report, error) {
	b, err := toolchain.BuildProgramOpts(sources, toolchain.BuildOptions{Check: true, Entry: entry})
	if err != nil {
		return nil, err
	}
	return b.Report, nil
}

// The verdict programs double as the soundness corpus in sound_test.go.
var verdictPrograms = []struct {
	name    string
	verdict staticcheck.Verdict
	src     string
}{
	{
		// The required `previously` event runs on every path to the site.
		name:    "safe_previously",
		verdict: staticcheck.Safe,
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int r = audit_log(x);
	return do_work(x);
}
`,
	},
	{
		// The event function exists but is never called: the site can
		// never be satisfied. The lint pass cannot see this.
		name:    "doomed_previously",
		verdict: staticcheck.Failing,
		src: `
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(ANY(int))));
	return x;
}
int main(int x) { return do_work(x); }
`,
	},
	{
		// The event only happens on one branch: runtime must decide.
		name:    "conditional_event",
		verdict: staticcheck.NeedsRuntime,
		src: `
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(ANY(int))));
	return x;
}
int main(int x) {
	if (x > 0) {
		int r = security_check(x);
	}
	return do_work(x);
}
`,
	},
	{
		// A constant return pattern may fail to match, so delivery of the
		// event is not certain even though the call always runs.
		name:    "ret_pattern_may_fire",
		verdict: staticcheck.NeedsRuntime,
		src: `
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(ANY(int)) == 0));
	return x;
}
int main(int x) {
	int r = security_check(x);
	return do_work(x);
}
`,
	},
	{
		// A scope variable keys the instances; the general instance never
		// moves on keyed events, so nothing is provable.
		name:    "keyed_event",
		verdict: staticcheck.NeedsRuntime,
		src: `
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(x)));
	return x;
}
int main(int x) {
	int r = security_check(x);
	return do_work(x);
}
`,
	},
	{
		// eventually() whose event never occurs: stuck at bound exit on
		// every path — Incomplete is guaranteed.
		name:    "doomed_eventually",
		verdict: staticcheck.Failing,
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int main(int x) { return do_work(x); }
`,
	},
	{
		// eventually() whose event always follows the site.
		name:    "safe_eventually",
		verdict: staticcheck.Safe,
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int w = do_work(x);
	int r = audit_log(x);
	return w;
}
`,
	},
	{
		// incallstack satisfied: the site is only reached under helper.
		name:    "safe_incallstack",
		verdict: staticcheck.Safe,
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, incallstack(helper) || previously(audit_log(ANY(int))));
	return x;
}
int helper(int x) { return do_work(x); }
int main(int x) { return helper(x); }
`,
	},
	{
		// incallstack never satisfied and the alternative event never
		// happens: doomed.
		name:    "doomed_incallstack",
		verdict: staticcheck.Failing,
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, incallstack(helper) || previously(audit_log(ANY(int))));
	return x;
}
int helper(int x) { return do_work(x); }
int main(int x) { return do_work(x); }
`,
	},
	{
		// A loop between bound begin and the doomed site must not weaken
		// the FAILING proof: diverging runs are outside the quantifier.
		name:    "doomed_after_loop",
		verdict: staticcheck.Failing,
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	while (x > 0) {
		x = x - 1;
	}
	return do_work(x);
}
`,
	},
	{
		// Recursion defeats the interprocedural analysis.
		name:    "recursion_bails",
		verdict: staticcheck.NeedsRuntime,
		src: `
int audit_log(int x) { return 0; }
int fact(int n) {
	if (n < 2) { return 1; }
	return fact(n - 1);
}
int do_work(int x) {
	TESLA_WITHIN(main, previously(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int r = audit_log(x);
	int f = fact(3);
	return do_work(x);
}
`,
	},
	{
		// An indirect call hides arbitrary callees.
		name:    "callptr_bails",
		verdict: staticcheck.NeedsRuntime,
		src: `
int audit_log(int x) { return 0; }
int call_it(int audit_log) { return audit_log(); }
int do_work(int x) {
	TESLA_WITHIN(main, previously(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int r = audit_log(x);
	int c = call_it(x);
	return do_work(x);
}
`,
	},
	{
		// Every run dies with a VM error at the undefined callee before
		// the site: no execution can produce a violation, so the doomed-
		// looking assertion is in fact safe.
		name:    "escape_before_site_is_safe",
		verdict: staticcheck.Safe,
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int e = external_fn(x);
	return do_work(x);
}
`,
	},
	{
		// Only one branch escapes: the other path is guaranteed to
		// violate, but a run may also die violation-free, so neither
		// SAFE nor FAILING can be claimed.
		name:    "escape_blocks_failing",
		verdict: staticcheck.NeedsRuntime,
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	if (x > 0) {
		int e = external_fn(x);
	}
	return do_work(x);
}
`,
	},
}

func TestVerdicts(t *testing.T) {
	for _, tc := range verdictPrograms {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := checkSources(map[string]string{tc.name + ".c": tc.src}, "main")
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != 1 {
				t.Fatalf("results = %d", len(rep.Results))
			}
			r := rep.Results[0]
			if r.Verdict != tc.verdict {
				t.Fatalf("verdict = %s, want %s (reasons: %v)", r.Verdict, tc.verdict, r.Reasons)
			}
			if r.Verdict != staticcheck.Safe && len(r.Reasons) == 0 {
				t.Fatal("non-SAFE verdict must carry a reason")
			}
		})
	}
}

func TestCrossFileResolution(t *testing.T) {
	// The event function is defined in another translation unit; the
	// checker links the program before walking it.
	sources := map[string]string{
		"main.c": `
int do_work(int x) {
	TESLA_WITHIN(main, previously(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int r = audit_log(x);
	return do_work(x);
}
`,
		"lib.c": `
int audit_log(int x) { return 0; }
`,
	}
	rep, err := checkSources(sources, "main")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Verdict != staticcheck.Safe {
		t.Fatalf("verdict = %s, want PROVABLY-SAFE: %v", rep.Results[0].Verdict, rep.Results[0].Reasons)
	}
}

func TestMissingEntry(t *testing.T) {
	rep, err := checkSources(map[string]string{"a.c": `
int audit_log(int x) { return 0; }
int start(int x) {
	TESLA_WITHIN(start, previously(audit_log(ANY(int))));
	return x;
}
`}, "main")
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Verdict != staticcheck.NeedsRuntime || !strings.Contains(strings.Join(r.Reasons, " "), "entry") {
		t.Fatalf("verdict = %s %v", r.Verdict, r.Reasons)
	}
	// With the right entry the same program is provable.
	rep, err = checkSources(map[string]string{"a.c": `
int audit_log(int x) { return 0; }
int start(int x) {
	int r = audit_log(x);
	TESLA_WITHIN(start, previously(audit_log(ANY(int))));
	return x;
}
`}, "start")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Verdict != staticcheck.Safe {
		t.Fatalf("verdict = %s %v", rep.Results[0].Verdict, rep.Results[0].Reasons)
	}
}

func TestReportHelpers(t *testing.T) {
	sources := map[string]string{"two.c": `
int audit_log(int x) { return 0; }
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(audit_log(ANY(int))));
	TESLA_WITHIN(main, previously(security_check(ANY(int))));
	return x;
}
int main(int x) {
	int r = audit_log(x);
	return do_work(x);
}
`}
	rep, err := checkSources(sources, "main")
	if err != nil {
		t.Fatal(err)
	}
	safe, failing, runtime := rep.Counts()
	if safe != 1 || failing != 1 || runtime != 0 {
		t.Fatalf("counts = %d/%d/%d", safe, failing, runtime)
	}
	set := rep.SafeSet()
	if len(set) != 1 || !set["two.c:5"] {
		t.Fatalf("safe set = %v", set)
	}
	if rep.Result("two.c:6") == nil || rep.Result("nope") != nil {
		t.Fatal("Result lookup broken")
	}
}

func TestDotOutput(t *testing.T) {
	rep, err := checkSources(map[string]string{"d.c": verdictPrograms[0].src}, "main")
	if err != nil {
		t.Fatal(err)
	}
	dot := rep.Results[0].Dot()
	if !strings.HasPrefix(dot, "digraph ") || !strings.Contains(dot, "->") {
		t.Fatalf("dot output malformed:\n%s", dot)
	}
	if !strings.Contains(dot, "audit_log") {
		t.Fatalf("dot output lacks event labels:\n%s", dot)
	}
}

// TestExamplePrograms pins the verdicts for the on-disk demo sources that
// the README and the Makefile `check` target rely on.
func TestExamplePrograms(t *testing.T) {
	cases := map[string]staticcheck.Verdict{
		"safe.c":   staticcheck.Safe,
		"doomed.c": staticcheck.Failing,
	}
	for name, want := range cases {
		text, err := os.ReadFile(filepath.Join("..", "..", "examples", "staticcheck", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := checkSources(map[string]string{name: string(text)}, "main")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != 1 || rep.Results[0].Verdict != want {
			t.Fatalf("%s: verdict = %s, want %s (%v)", name, rep.Results[0].Verdict, want, rep.Results[0].Reasons)
		}
	}
}
