// Benchmarks regenerating the paper's evaluation (§5), one benchmark family
// per table/figure. Absolute numbers reflect this simulator, not the
// paper's FreeBSD/LLVM testbed; the comparisons within each family are the
// reproduction target. Figs. 11a-14b run internal/bench's case lists, the
// same set-ups and timing loops cmd/tesla-bench prints as tables.
package tesla

import (
	"testing"
	"time"

	"tesla/internal/bench"
	"tesla/internal/core"
	"tesla/internal/gui"
	"tesla/internal/monitor"
	"tesla/internal/toolchain"
	"tesla/internal/xnee"
)

// BenchmarkFig10Build times clean and incremental builds of the synthetic
// OpenSSL codebase, with and without TESLA: one Fig10Measure per iteration,
// its four build times reported as metrics.
func BenchmarkFig10Build(b *testing.B) {
	sources := bench.OpenSSLCodebase(12, 6)
	var sum bench.BuildTimes
	for i := 0; i < b.N; i++ {
		bt, err := bench.Fig10Measure(sources)
		if err != nil {
			b.Fatal(err)
		}
		sum.CleanDefault += bt.CleanDefault
		sum.CleanTESLA += bt.CleanTESLA
		sum.IncrDefault += bt.IncrDefault
		sum.IncrTESLA += bt.IncrTESLA
	}
	n := float64(b.N)
	b.ReportMetric(float64(sum.CleanDefault)/n, "CleanDefault-ns")
	b.ReportMetric(float64(sum.CleanTESLA)/n, "CleanTESLA-ns")
	b.ReportMetric(float64(sum.IncrDefault)/n, "IncrDefault-ns")
	b.ReportMetric(float64(sum.IncrTESLA)/n, "IncrTESLA-ns")
}

// runCases runs each case as a sub-benchmark: set-up, then b.N operations
// of its timing loop. report, if not nil, adds the case's own metrics.
func runCases(b *testing.B, cases []bench.Case, report func(b *testing.B)) {
	for _, c := range cases {
		b.Run(c.Name, func(b *testing.B) {
			op, err := c.Setup()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			op(b.N)
			if report != nil {
				report(b)
			}
		})
	}
}

// BenchmarkFig11aOpenClose is the lmbench-style open/close microbenchmark
// across kernel configurations.
func BenchmarkFig11aOpenClose(b *testing.B) { runCases(b, bench.Fig11aCases(), nil) }

// BenchmarkFig11bOLTP is the socket-intensive macrobenchmark.
func BenchmarkFig11bOLTP(b *testing.B) { runCases(b, bench.Fig11bCases(bench.OLTP), nil) }

// BenchmarkFig11bBuild is the FS/compute-intensive macrobenchmark.
func BenchmarkFig11bBuild(b *testing.B) { runCases(b, bench.Fig11bCases(bench.ClangBuild), nil) }

// BenchmarkFig12Context compares per-thread and global assertion contexts
// over polls from 4 kernel threads: the global one serialises their events.
func BenchmarkFig12Context(b *testing.B) { runCases(b, bench.Fig12Cases(), nil) }

// BenchmarkFig13LazyInit compares the naive implementation (work on every
// syscall-bounded automaton at every syscall) against the lazy-init
// optimisation, for micro (one poll) and macro workloads.
func BenchmarkFig13LazyInit(b *testing.B) { runCases(b, bench.Fig13Cases(), nil) }

// BenchmarkFig14aMsgSend is the Objective-C message-send ladder: release,
// tracing compiled in, trivial interposition, full TESLA.
func BenchmarkFig14aMsgSend(b *testing.B) { runCases(b, bench.Fig14aCases(), nil) }

// BenchmarkFig14bRedraw measures run-loop iterations (Xnee dialog replay)
// across the four tracing configurations, reporting the redraw-time
// percentiles tesla-bench prints.
func BenchmarkFig14bRedraw(b *testing.B) {
	var batches []time.Duration
	runCases(b, bench.Fig14bCases(&batches), func(b *testing.B) {
		b.ReportMetric(float64(bench.Percentile(batches, 0.50)), "p50-ns")
		b.ReportMetric(float64(bench.Percentile(batches, 0.95)), "p95-ns")
		b.ReportMetric(float64(bench.Percentile(batches, 1.0)), "max-ns")
		batches = batches[:0]
	})
}

// benchPlans lowers the enter/check/exit automaton the store benchmarks
// drive, once, as the monitor does at link time.
func benchPlans(cls *core.Class) (enter, check, exit *core.SymbolPlan) {
	enter = core.NewSymbolPlan(cls, "enter", 0, core.TransitionSet{{From: 0, To: 1, Flags: core.TransInit}})
	check = core.NewSymbolPlan(cls, "check", 0, core.TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 2, KeyMask: 1}})
	exit = core.NewSymbolPlan(cls, "exit", 0, core.TransitionSet{
		{From: 1, To: 4, Flags: core.TransCleanup},
		{From: 2, To: 4, Flags: core.TransCleanup},
	})
	return
}

// BenchmarkCoreUpdateState is the hot-path cost of one libtesla event.
func BenchmarkCoreUpdateState(b *testing.B) {
	cls := &core.Class{Name: "bench", States: 5, Limit: 8}
	s := core.NewStoreOpts(core.StoreOpts{Context: core.PerThread})
	s.Register(cls)
	enter, check, exit := benchPlans(cls)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateStatePlan(enter, core.AnyKey)
		s.UpdateStatePlan(check, core.AnyKey.Set(0, core.Value(i&7)))
		s.UpdateStatePlan(exit, core.AnyKey)
	}
}

// BenchmarkAblationPreallocation compares preallocated instance tables of
// different sizes: scanning cost grows with the block, motivating the
// fixed small default.
func BenchmarkAblationPreallocation(b *testing.B) {
	for _, limit := range []int{8, 32, 256} {
		b.Run(map[int]string{8: "limit8", 32: "limit32", 256: "limit256"}[limit], func(b *testing.B) {
			cls := &core.Class{Name: "prealloc", States: 5, Limit: limit}
			s := core.NewStoreOpts(core.StoreOpts{Context: core.PerThread})
			s.Register(cls)
			enter, check, exit := benchPlans(cls)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.UpdateStatePlan(enter, core.AnyKey)
				for j := 0; j < 4; j++ {
					s.UpdateStatePlan(check, core.AnyKey.Set(0, core.Value(j)))
				}
				s.UpdateStatePlan(exit, core.AnyKey)
			}
		})
	}
}

// BenchmarkAblationCallerVsCallee compares caller- and callee-side
// instrumentation of the same event in the compiled pipeline.
func BenchmarkAblationCallerVsCallee(b *testing.B) {
	prog := func(side string) map[string]string {
		return map[string]string{"p.c": `
int lib_op(int x) { return x + 1; }
int run(int n) {
	int i = 0;
	int acc = 0;
	while (i < n) {
		acc = acc + lib_op(i);
		i++;
	}
	TESLA_WITHIN(main, previously(` + side + `(lib_op(ANY(int)) == 1)));
	return acc;
}
int main(int n) { return run(n); }
`}
	}
	for _, side := range []string{"caller", "callee"} {
		b.Run(side, func(b *testing.B) {
			build, err := toolchain.BuildProgram(prog(side), true)
			if err != nil {
				b.Fatal(err)
			}
			rt, err := build.NewRuntime(monitor.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.VM.Run("main", 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVMOverhead compares instrumented vs uninstrumented execution of
// the same program on the IR interpreter.
func BenchmarkVMOverhead(b *testing.B) {
	src := map[string]string{"p.c": `
int chk(int x) { return 0; }
int work(int n) {
	int i = 0;
	int acc = 0;
	while (i < n) {
		int c = chk(i);
		acc = acc + i * 3 % 11 + c;
		i++;
	}
	TESLA_WITHIN(main, previously(chk(ANY(int)) == 0));
	return acc;
}
int main(int n) { return work(n); }
`}
	rungs := []struct {
		name         string
		instrumented bool
	}{
		{"plain", false},
		{"instrumented", true},
	}
	for _, r := range rungs {
		b.Run(r.name, func(b *testing.B) {
			build, err := toolchain.BuildProgram(src, r.instrumented)
			if err != nil {
				b.Fatal(err)
			}
			rt, err := build.NewRuntime(monitor.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.VM.Run("main", 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGUICursorTracking measures the cursor/tracking machinery with
// TESLA tracing attached — the §3.5.3 debugging setup.
func BenchmarkGUICursorTracking(b *testing.B) {
	rl := bench.Fig14bSetup(bench.TESLAMode)
	script := xnee.CursorCrossing(gui.Rect{X: 0, Y: 0, W: 100, H: 100}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range script.Batches {
			rl.ProcessBatch(batch)
		}
	}
}
