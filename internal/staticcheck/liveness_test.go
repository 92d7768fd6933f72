package staticcheck_test

import (
	"bytes"
	"strings"
	"testing"

	"tesla/internal/build"
	"tesla/internal/ir"
	"tesla/internal/staticcheck"
)

// livenessPrograms is the refinement-pass corpus: `eventually`
// obligations whose discharge depends on loop termination, constant
// propagation or interprocedural argument binding. Each entry records
// the expected verdict, whether the verdict must come from the liveness
// pass, and substrings that must appear in the proof or obligations.
var livenessPrograms = []struct {
	name       string
	src        string
	verdict    staticcheck.Verdict
	liveness   bool   // Result.Liveness must match
	proofHas   string // required substring of a Proof line ("" = none required)
	obligation string // required Obligation kind ("" = no obligations allowed)
}{
	{
		// The flush loop runs the discharge event a literal-constant
		// number of times: counted-loop ranking + trip-count >= 1.
		name: "counted_loop_eventually",
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int w = do_work(x);
	int i = 0;
	while (i < 3) {
		int r = audit_log(i);
		i = i + 1;
	}
	return w;
}
`,
		verdict:  staticcheck.Safe,
		liveness: true,
		proofHas: "proved terminating",
	},
	{
		// Decrementing counter: same ranking argument, negative
		// back-edge variance.
		name: "counted_loop_decrement",
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int w = do_work(x);
	int i = 5;
	while (i > 0) {
		int r = audit_log(i);
		i = i - 1;
	}
	return w;
}
`,
		verdict:  staticcheck.Safe,
		liveness: true,
		proofHas: "back-edge variance -1",
	},
	{
		// The loop bound arrives as a constant call argument: the
		// interprocedural pass propagates 4 into flush_log's frame.
		name: "interprocedural_bound",
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int flush_log(int n) {
	int i = 0;
	while (i < n) {
		int r = audit_log(i);
		i = i + 1;
	}
	return i;
}
int main(int x) {
	int w = do_work(x);
	int f = flush_log(4);
	return w;
}
`,
		verdict:  staticcheck.Safe,
		liveness: true,
		proofHas: "proved terminating",
	},
	{
		// The discharge call sits behind a constant-true branch; the
		// refinement pass prunes the path that would skip it.
		name: "const_branch_discharge",
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int w = do_work(x);
	int flag = 1;
	if (flag > 0) {
		int r = audit_log(x);
	}
	return w;
}
`,
		verdict:  staticcheck.Safe,
		liveness: true,
		proofHas: "pruned by constant propagation",
	},
	{
		// The loop bound is an unknown parameter: zero trips are
		// possible, so the obligation survives with a □◇ assumption.
		name: "unknown_bound",
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int main(int n) {
	int w = do_work(n);
	int i = 0;
	while (i < n) {
		int r = audit_log(i);
		i = i + 1;
	}
	return w;
}
`,
		verdict:    staticcheck.NeedsRuntime,
		obligation: "eventually",
	},
	{
		// The discharge event is conditional inside the loop: even a
		// proved-terminating loop may never run it.
		name: "conditional_event_in_loop",
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int w = do_work(x);
	int i = 0;
	while (i < 3) {
		if (x > 0) {
			int r = audit_log(i);
		}
		i = i + 1;
	}
	return w;
}
`,
		verdict:    staticcheck.NeedsRuntime,
		obligation: "eventually",
	},
	{
		// The counter's address escapes into a call, so the ranking
		// argument (and the cell tracking) must refuse it.
		name: "escaped_counter",
		src: `
int audit_log(int x) { return 0; }
int peek(int p) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int w = do_work(x);
	int i = 0;
	while (i < 3) {
		int r = audit_log(i);
		int s = peek(&i);
		i = i + 1;
	}
	return w;
}
`,
		verdict:    staticcheck.NeedsRuntime,
		obligation: "eventually",
	},
}

func TestLivenessVerdicts(t *testing.T) {
	for _, tc := range livenessPrograms {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := checkSources(map[string]string{tc.name + ".c": tc.src}, "main")
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != 1 {
				t.Fatalf("want 1 result, got %d", len(rep.Results))
			}
			res := rep.Results[0]
			if res.Verdict != tc.verdict {
				t.Fatalf("verdict = %v, want %v (reasons %v)", res.Verdict, tc.verdict, res.Reasons)
			}
			if res.Liveness != tc.liveness {
				t.Errorf("Liveness = %v, want %v", res.Liveness, tc.liveness)
			}
			if tc.proofHas != "" {
				found := false
				for _, p := range res.Proof {
					if strings.Contains(p, tc.proofHas) {
						found = true
					}
				}
				if !found {
					t.Errorf("no proof line contains %q; proof = %v", tc.proofHas, res.Proof)
				}
			}
			if tc.obligation == "" {
				if len(res.Obligations) != 0 {
					t.Errorf("unexpected obligations: %v", res.Obligations)
				}
				return
			}
			found := false
			for _, o := range res.Obligations {
				if o.Kind != tc.obligation {
					continue
				}
				found = true
				if o.Fairness == "" || !strings.Contains(o.Fairness, "□◇") {
					t.Errorf("obligation fairness = %q, want a □◇ assumption", o.Fairness)
				}
				if len(o.Discharge) == 0 {
					t.Errorf("obligation has no discharge events: %+v", o)
				}
				if !strings.Contains(o.Detail, o.Fairness) {
					t.Errorf("obligation detail %q does not quote its fairness %q", o.Detail, o.Fairness)
				}
			}
			if !found {
				t.Errorf("no obligation of kind %q; obligations = %+v", tc.obligation, res.Obligations)
			}
		})
	}
}

// checkWithOptions builds sources through the build graph but runs the
// checker itself, under caller-supplied Options (the graph's check node
// only exposes Entry and NoLiveness).
func checkWithOptions(t *testing.T, sources map[string]string, opts staticcheck.Options) *staticcheck.Report {
	t.Helper()
	res, err := build.Run(sources, build.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]*ir.Module, len(res.Units))
	for i, u := range res.Units {
		mods[i] = u.Module
	}
	prog, err := ir.Link("program", mods...)
	if err != nil {
		t.Fatal(err)
	}
	autos, err := res.Manifest.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return staticcheck.Check(prog, autos, opts)
}

// TestLivenessBudget exhausts MaxConfigs on a program the default budget
// proves Safe: the budget bail must degrade to NEEDS-RUNTIME (never a
// wrong SAFE) and carry an explicit budget obligation naming the valve.
func TestLivenessBudget(t *testing.T) {
	sources := map[string]string{"budget.c": livenessPrograms[0].src}

	rep := checkWithOptions(t, sources, staticcheck.WithMaxConfigs(staticcheck.Options{Entry: "main"}, 1))
	if len(rep.Results) != 1 {
		t.Fatalf("want 1 result, got %d", len(rep.Results))
	}
	res := rep.Results[0]
	if res.Verdict == staticcheck.Safe {
		t.Fatalf("budget-starved check must not claim SAFE; got %v", res.Verdict)
	}
	if res.Verdict != staticcheck.NeedsRuntime {
		t.Fatalf("verdict = %v, want NEEDS-RUNTIME", res.Verdict)
	}
	found := false
	for _, o := range res.Obligations {
		if o.Kind == "budget" {
			found = true
			if !strings.Contains(o.Detail, "MaxConfigs") {
				t.Errorf("budget obligation does not name the valve: %q", o.Detail)
			}
		}
	}
	if !found {
		t.Errorf("no budget obligation; obligations = %+v", res.Obligations)
	}

	// The same program under the default budget is liveness-Safe.
	rep = checkWithOptions(t, sources, staticcheck.Options{Entry: "main"})
	if res := rep.Results[0]; res.Verdict != staticcheck.Safe || !res.Liveness {
		t.Fatalf("default budget: verdict = %v liveness = %v, want liveness-Safe", res.Verdict, res.Liveness)
	}
}

// TestNoLivenessOption pins the safety-only behaviour: with NoLiveness the
// counted-loop program stays NEEDS-RUNTIME and gains no proof lines.
func TestNoLivenessOption(t *testing.T) {
	sources := map[string]string{"noliv.c": livenessPrograms[0].src}
	rep := checkWithOptions(t, sources, staticcheck.Options{Entry: "main", NoLiveness: true})
	res := rep.Results[0]
	if res.Verdict != staticcheck.NeedsRuntime {
		t.Fatalf("NoLiveness verdict = %v, want NEEDS-RUNTIME", res.Verdict)
	}
	if res.Liveness || len(res.Proof) != 0 {
		t.Errorf("NoLiveness result carries liveness artefacts: liveness=%v proof=%v", res.Liveness, res.Proof)
	}
	// Obligations still surface — they come from the safety walk.
	if len(res.Obligations) == 0 {
		t.Errorf("NoLiveness result lost its obligations")
	}
}

// TestReportDeterminism runs the checker twice over a multi-assertion
// program and asserts the rendered text and JSON reports are
// byte-identical: every reason, proof line and obligation must be routed
// through the sorted normalisation, never map iteration order.
func TestReportDeterminism(t *testing.T) {
	sources := map[string]string{}
	sources["det.c"] = `
int audit_log(int x) { return 0; }
int notify(int x) { return 1; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	TESLA_WITHIN(main, eventually(notify(ANY(int))));
	return x;
}
int main(int n) {
	int w = do_work(n);
	int i = 0;
	while (i < n) {
		int r = audit_log(i);
		int s = notify(r);
		i = i + 1;
	}
	return w;
}
`
	render := func() (string, string) {
		rep, err := checkSources(sources, "main")
		if err != nil {
			t.Fatal(err)
		}
		var text, js bytes.Buffer
		rep.WriteText(&text, false)
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return text.String(), js.String()
	}
	t1, j1 := render()
	for i := 0; i < 10; i++ {
		t2, j2 := render()
		if t1 != t2 {
			t.Fatalf("text report differs between runs:\n--- run 1\n%s\n--- run %d\n%s", t1, i+2, t2)
		}
		if j1 != j2 {
			t.Fatalf("JSON report differs between runs:\n--- run 1\n%s\n--- run %d\n%s", j1, i+2, j2)
		}
	}
}

// TestObligationDot renders an undischarged obligation's product graph and
// checks the dashed fairness edge is present.
func TestObligationDot(t *testing.T) {
	rep, err := checkSources(map[string]string{"dot.c": livenessPrograms[4].src}, "main")
	if err != nil {
		t.Fatal(err)
	}
	dot := rep.Results[0].Dot()
	if !strings.Contains(dot, "assume □◇") {
		t.Errorf("dot output lacks the fairness note:\n%s", dot)
	}
	if !strings.Contains(dot, "style=dashed") {
		t.Errorf("dot output lacks the dashed obligation edge:\n%s", dot)
	}
}
