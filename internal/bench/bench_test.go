package bench

import (
	"strings"
	"testing"
	"time"

	"tesla/internal/kernel"
	"tesla/internal/objc"
	"tesla/internal/spec"
)

// The harness runners are exercised with tiny iteration counts: the goal is
// that every figure regenerates without error and produces the expected
// table structure, not that the numbers are stable.

func TestKernelConfigs(t *testing.T) {
	cfgs := KernelConfigs()
	if len(cfgs) != 10 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	if _, ok := ConfigByName("Release"); !ok {
		t.Fatal("Release config missing")
	}
	if _, ok := ConfigByName("nope"); ok {
		t.Fatal("phantom config")
	}
	for _, c := range cfgs {
		k, err := BootConfig(c, kernel.BugConfig{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		th := k.NewThread()
		kernel.OpenClose(th, 2)
	}
}

func TestTable1Output(t *testing.T) {
	var sb strings.Builder
	Table1(&sb)
	for _, want := range []string{"MF", "25", "96", "Process lifetimes"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table 1 missing %q:\n%s", want, sb.String())
		}
	}
}

func TestFig9Output(t *testing.T) {
	var sb strings.Builder
	if err := Fig9(&sb, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "«init»", "mac_socket_check_poll", "xlabel"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig 9 missing %q", want)
		}
	}
}

func TestFig10Runs(t *testing.T) {
	bt, err := Fig10Measure(OpenSSLCodebase(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if bt.CleanDefault <= 0 || bt.CleanTESLA <= 0 || bt.IncrDefault <= 0 || bt.IncrTESLA <= 0 {
		t.Fatalf("missing timings: %+v", bt)
	}
	// The structural property: incremental TESLA re-instruments every
	// module and must cost more than the one-file default rebuild.
	if bt.IncrTESLA <= bt.IncrDefault {
		t.Fatalf("incremental TESLA (%v) should exceed default (%v)", bt.IncrTESLA, bt.IncrDefault)
	}
	var sb strings.Builder
	if err := Fig10(&sb, 4, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Incremental, TESLA") {
		t.Fatalf("fig 10 table malformed:\n%s", sb.String())
	}
}

func TestFig11Runners(t *testing.T) {
	var sb strings.Builder
	if err := Fig11a(&sb, 20); err != nil {
		t.Fatal(err)
	}
	if err := Fig11b(&sb, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 11a", "SysBench OLTP", "Clang build", "Release"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig 11 output missing %q", want)
		}
	}
}

func TestFig12And13Runners(t *testing.T) {
	var sb strings.Builder
	if err := Fig12(&sb, 64); err != nil {
		t.Fatal(err)
	}
	if err := Fig13(&sb, 20); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Per-thread", "Global", "lazy-initialisation", "MAC micro pre"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig 12/13 output missing %q", want)
		}
	}
}

func TestFig13ShapeHolds(t *testing.T) {
	pre, err := Fig13Measure(kernel.SetAll, true, OLTP, 50)
	if err != nil {
		t.Fatal(err)
	}
	post, err := Fig13Measure(kernel.SetAll, false, OLTP, 50)
	if err != nil {
		t.Fatal(err)
	}
	// The lazy-init optimisation must be a clear win — the figure 13
	// claim. Allow generous slack for timer noise.
	if post >= pre {
		t.Fatalf("optimisation not effective: pre=%v post=%v", pre, post)
	}
}

func TestFig14Runners(t *testing.T) {
	var sb strings.Builder
	Fig14a(&sb, 500)
	if err := Fig14b(&sb, 32); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"release", "TESLA", "p50", "max"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig 14 output missing %q", want)
		}
	}
}

func TestFig14aLadderShape(t *testing.T) {
	rel := Fig14aMeasure(objc.NoTracing, 30000)
	tes := Fig14aMeasure(objc.TESLA, 30000)
	if tes <= rel {
		t.Fatalf("TESLA mode (%v) must cost more than release (%v)", tes, rel)
	}
}

func TestTraceOverheadRuns(t *testing.T) {
	var sb strings.Builder
	if err := TraceOverhead(&sb, 20); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"tracing off", "ring buffer", "ring + file", "ns/event", "bytes/event"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace overhead output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceRunRecordsEvents(t *testing.T) {
	// The recording modes must capture a non-empty, complete event stream:
	// a complete trace is what makes the file mode's output replayable.
	_, events, bytes, err := traceRun(TraceFile, 10)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no events recorded")
	}
	if bytes == 0 {
		t.Fatal("no trace encoded")
	}
}

func TestPercentile(t *testing.T) {
	s := []time.Duration{5, 1, 9, 3, 7}
	if Percentile(s, 0) != 1 || Percentile(s, 1) != 9 || Percentile(s, 0.5) != 5 {
		t.Fatalf("percentiles wrong: %v", s)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestFig12MeasureBothContexts(t *testing.T) {
	for _, ctx := range []spec.Context{spec.PerThread, spec.Global} {
		if _, err := Fig12Measure(ctx, 32); err != nil {
			t.Fatalf("%v: %v", ctx, err)
		}
	}
}

func TestElisionRuns(t *testing.T) {
	es, err := ElisionMeasure(ElisionCodebase(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if es.SafeAssertions != 2 || es.RuntimeAssertions != 1 {
		t.Fatalf("verdicts = %d safe, %d runtime", es.SafeAssertions, es.RuntimeAssertions)
	}
	// Exactly one of the safe assertions needs the liveness pass.
	if es.SafetySafe != 1 {
		t.Fatalf("safety pass proved %d assertions, want 1", es.SafetySafe)
	}
	if es.LivenessHooks+es.LivenessAway != es.FullHooks || es.LivenessAway == 0 {
		t.Fatalf("hook accounting: %+v", es)
	}
	// Each rung must strictly remove hooks: full > safety-only > liveness.
	if es.SafetyHooks >= es.FullHooks || es.LivenessHooks >= es.SafetyHooks {
		t.Fatalf("elision ladder not strictly decreasing: %+v", es)
	}
	if es.LivenessInstrs >= es.SafetyInstrs || es.SafetyInstrs >= es.FullInstrs {
		t.Fatalf("elision did not shrink the program: %+v", es)
	}
	if es.LivenessSteps >= es.SafetySteps || es.SafetySteps >= es.FullSteps {
		t.Fatalf("elision did not shorten the run: %+v", es)
	}
	var buf strings.Builder
	if err := Elision(&buf, 3, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "provably safe") {
		t.Fatalf("table output:\n%s", buf.String())
	}
}
