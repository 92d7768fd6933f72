// Benchmarks regenerating the paper's evaluation (§5), one benchmark family
// per table/figure. Absolute numbers reflect this simulator, not the
// paper's FreeBSD/LLVM testbed; the comparisons within each family are the
// reproduction target. cmd/tesla-bench prints the same data as formatted
// tables.
package tesla

import (
	"sync"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/bench"
	"tesla/internal/core"
	"tesla/internal/gui"
	"tesla/internal/kernel"
	"tesla/internal/monitor"
	"tesla/internal/objc"
	"tesla/internal/spec"
	"tesla/internal/toolchain"
	"tesla/internal/xnee"
)

// BenchmarkFig10Build measures clean and incremental builds of the
// synthetic OpenSSL codebase, with and without the TESLA workflow.
func BenchmarkFig10Build(b *testing.B) {
	sources := bench.OpenSSLCodebase(12, 6)
	for _, which := range []string{"CleanDefault", "CleanTESLA", "IncrDefault", "IncrTESLA"} {
		b.Run(which, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bt, err := bench.Fig10Measure(sources)
				if err != nil {
					b.Fatal(err)
				}
				switch which {
				case "CleanDefault":
					b.ReportMetric(float64(bt.CleanDefault.Nanoseconds()), "ns/build")
				case "CleanTESLA":
					b.ReportMetric(float64(bt.CleanTESLA.Nanoseconds()), "ns/build")
				case "IncrDefault":
					b.ReportMetric(float64(bt.IncrDefault.Nanoseconds()), "ns/build")
				case "IncrTESLA":
					b.ReportMetric(float64(bt.IncrTESLA.Nanoseconds()), "ns/build")
				}
			}
		})
	}
}

// BenchmarkFig11aOpenClose is the lmbench-style open/close microbenchmark
// across kernel configurations.
func BenchmarkFig11aOpenClose(b *testing.B) {
	for _, cfg := range bench.KernelConfigs() {
		b.Run(cfg.Name, func(b *testing.B) {
			k, err := bench.BootConfig(cfg, kernel.BugConfig{})
			if err != nil {
				b.Fatal(err)
			}
			th := k.NewThread()
			bench.OpenClosePrewarm(th)
			b.ResetTimer()
			kernel.OpenClose(th, b.N)
		})
	}
}

// BenchmarkFig11bOLTP is the socket-intensive macrobenchmark.
func BenchmarkFig11bOLTP(b *testing.B) {
	for _, cfg := range bench.KernelConfigs() {
		b.Run(cfg.Name, func(b *testing.B) {
			k, err := bench.BootConfig(cfg, kernel.BugConfig{})
			if err != nil {
				b.Fatal(err)
			}
			th := k.NewThread()
			pair, err := kernel.SetupOLTP(th)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.OLTPTransaction(th, pair)
			}
		})
	}
}

// BenchmarkFig11bBuild is the FS/compute-intensive macrobenchmark.
func BenchmarkFig11bBuild(b *testing.B) {
	for _, cfg := range bench.KernelConfigs() {
		b.Run(cfg.Name, func(b *testing.B) {
			k, err := bench.BootConfig(cfg, kernel.BugConfig{})
			if err != nil {
				b.Fatal(err)
			}
			th := k.NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.BuildStep(th, i)
			}
		})
	}
}

// BenchmarkFig12Context compares per-thread and global assertion contexts:
// the global context serialises all threads' events behind one lock, which
// comes at a run-time cost under concurrency.
func BenchmarkFig12Context(b *testing.B) {
	for _, ctx := range []spec.Context{spec.PerThread, spec.Global} {
		b.Run(ctx.String(), func(b *testing.B) {
			a := spec.Assert("fig12", ctx, spec.WithinBound("amd64_syscall"),
				spec.Previously(spec.Call("mac_socket_check_poll",
					spec.AnyPtr(), spec.Var("so")).ReturnsInt(0)))
			auto := automata.MustCompile(a)
			mon := monitor.MustNew(monitor.Options{}, auto)
			k := kernel.New(kernel.Config{Monitor: mon})

			// One kernel thread and socket pair per goroutine,
			// created before the clock starts.
			var mu sync.Mutex
			mkThread := func() (*kernel.Thread, kernel.OLTPPair) {
				mu.Lock()
				defer mu.Unlock()
				th := k.NewThread()
				pair, err := kernel.SetupOLTP(th)
				if err != nil {
					b.Fatal(err)
				}
				return th, pair
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				th, pair := mkThread()
				for pb.Next() {
					th.Poll(pair.Client)
				}
			})
		})
	}
}

// BenchmarkFig13LazyInit compares the naive implementation (work on every
// syscall-bounded automaton at every syscall) against the lazy-init
// optimisation, for micro and macro workloads.
func BenchmarkFig13LazyInit(b *testing.B) {
	cases := []struct {
		name  string
		naive bool
		macro bool
	}{
		{"MicroPre", true, false},
		{"MicroPost", false, false},
		{"MacroPre", true, true},
		{"MacroPost", false, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := bench.KernelConfig{Name: c.name, Sets: kernel.SetAll, Naive: c.naive}
			k, err := bench.BootConfig(cfg, kernel.BugConfig{})
			if err != nil {
				b.Fatal(err)
			}
			th := k.NewThread()
			pair, err := kernel.SetupOLTP(th)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.macro {
					kernel.OLTPTransaction(th, pair)
				} else {
					// Micro: one cheap syscall per iteration —
					// the per-syscall automaton bookkeeping
					// dominates.
					th.Poll(pair.Client)
				}
			}
		})
	}
}

// BenchmarkFig14aMsgSend is the Objective-C message-send ladder: release,
// tracing compiled in, trivial interposition, full TESLA.
func BenchmarkFig14aMsgSend(b *testing.B) {
	for _, mode := range []objc.TraceMode{objc.NoTracing, objc.TracingCompiled, objc.Interposed, objc.TESLA} {
		b.Run(mode.String(), func(b *testing.B) {
			rt := objc.NewRuntime(mode)
			cls := objc.NewClass("Probe", nil)
			cls.AddMethod("ping", func(*objc.Runtime, *objc.Object, ...core.Value) core.Value { return 1 })
			obj := rt.NewObject(cls)
			switch mode {
			case objc.Interposed:
				rt.Interpose("ping", func(*objc.Object, string, []core.Value) {})
			case objc.TESLA:
				auto := automata.MustCompile(spec.Within("fig14a", "loop",
					spec.Previously(spec.AtLeast(0, spec.Msg(spec.Any("id"), "ping")))))
				m := monitor.MustNew(monitor.Options{}, auto)
				th := m.NewThread()
				rt.InterposeTESLA(th, []string{"ping"}, nil)
				th.Call("loop")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.MsgSend(obj, "ping")
			}
		})
	}
}

// BenchmarkFig14bRedraw measures run-loop iterations (Xnee dialog replay)
// across the four tracing configurations.
func BenchmarkFig14bRedraw(b *testing.B) {
	for _, mode := range []bench.Fig14bMode{bench.BaselineMode, bench.InterpositionMode, bench.TESLAMode, bench.TracingMode} {
		b.Run(mode.String(), func(b *testing.B) {
			_, rl, err := bench.Fig14bSetup(mode)
			if err != nil {
				b.Fatal(err)
			}
			script := xnee.DialogSession(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rl.ProcessBatch(script.Batches[i%len(script.Batches)])
			}
		})
	}
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
	s := core.NewStore(core.PerThread, nil)
	s.Register(cls)
	enter, check, exit := benchPlans(cls)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateStatePlan(enter, core.AnyKey)
		s.UpdateStatePlan(check, core.NewKey(core.Value(i&7)))
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
			s := core.NewStore(core.PerThread, nil)
			s.Register(cls)
			enter, check, exit := benchPlans(cls)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.UpdateStatePlan(enter, core.AnyKey)
				for j := 0; j < 4; j++ {
					s.UpdateStatePlan(check, core.NewKey(core.Value(j)))
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
	_, rl, err := bench.Fig14bSetup(bench.TESLAMode)
	if err != nil {
		b.Fatal(err)
	}
	script := xnee.CursorCrossing(gui.Rect{X: 0, Y: 0, W: 100, H: 100}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range script.Batches {
			rl.ProcessBatch(batch)
		}
	}
}
