package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/gui"
	"tesla/internal/kernel"
	"tesla/internal/monitor"
	"tesla/internal/objc"
	"tesla/internal/spec"
	"tesla/internal/xnee"
)

// Table1 prints the assertion-set table.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: assertion sets")
	fmt.Fprintf(w, "  %-6s %-24s %10s\n", "Symbol", "Description", "Assertions")
	rows := []struct {
		sym, desc string
		set       kernel.Set
	}{
		{"MF", "MAC (filesystem)", kernel.SetMF},
		{"MS", "MAC (sockets)", kernel.SetMS},
		{"MP", "MAC (processes)", kernel.SetMP},
		{"M", "All MAC assertions", kernel.SetM},
		{"P", "Process lifetimes", kernel.SetP},
		{"All", "All TESLA assertions", kernel.SetAll},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6s %-24s %10d\n", r.sym, r.desc, len(kernel.Assertions(r.set)))
	}
	fmt.Fprintln(w)
}

// kernelOp builds a timing loop on one thread of a booted kernel.
type kernelOp func(th *kernel.Thread) (func(n int), error)

// openClose is the lmbench open/close loop; it creates the file once.
func openClose(th *kernel.Thread) (func(n int), error) {
	kernel.OpenClose(th, 1)
	return func(n int) { kernel.OpenClose(th, n) }, nil
}

// poll is one poll syscall per operation on a connected socket.
func poll(th *kernel.Thread) (func(n int), error) {
	pair, err := kernel.SetupOLTP(th)
	if err != nil {
		return nil, err
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			th.Poll(pair.Client)
		}
	}, nil
}

// kernelCase boots the configuration and drives op on one of its threads.
func kernelCase(name string, c KernelConfig, op kernelOp) Case {
	return Case{Name: name, Setup: func() (func(int), error) {
		k, err := BootConfig(c, kernel.BugConfig{})
		if err != nil {
			return nil, err
		}
		return op(k.NewThread())
	}}
}

// configCases runs op on every figure 11 configuration.
func configCases(op kernelOp) []Case {
	var cases []Case
	for _, c := range KernelConfigs() {
		cases = append(cases, kernelCase(c.Name, c, op))
	}
	return cases
}

// Fig11aCases are the open/close microbenchmark's configurations.
func Fig11aCases() []Case { return configCases(openClose) }

// Fig11a prints the open/close microbenchmark across configurations.
func Fig11a(w io.Writer, iters int) error {
	rows, err := timeCases(Fig11aCases(), iters, 1, "µs/op", time.Microsecond)
	if err != nil {
		return err
	}
	Table(w, "Figure 11a: lmbench open/close microbenchmark", rows, "Release")
	fmt.Fprintln(w, "  paper shape: microbenchmarks visibly slowed, growing with assertion sets;")
	fmt.Fprintln(w, "  Debug (WITNESS+INVARIANTS) also measurably above Release")
	fmt.Fprintln(w)
	return nil
}

// MacroWorkload identifies a figure 11b macrobenchmark.
type MacroWorkload int

const (
	// OLTP is the SysBench-style socket-intensive transaction mix.
	OLTP MacroWorkload = iota
	// ClangBuild is the FS/compute-intensive compiler build.
	ClangBuild
)

func (m MacroWorkload) String() string {
	if m == OLTP {
		return "SysBench OLTP"
	}
	return "Clang build"
}

// op is the workload's timing loop: one transaction or one build step per
// operation.
func (m MacroWorkload) op(th *kernel.Thread) (func(n int), error) {
	if m == ClangBuild {
		return func(n int) {
			for i := 0; i < n; i++ {
				kernel.BuildStep(th, i)
			}
		}, nil
	}
	pair, err := kernel.SetupOLTP(th)
	if err != nil {
		return nil, err
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			kernel.OLTPTransaction(th, pair)
		}
	}, nil
}

// Fig11bCases are one macro workload's configurations.
func Fig11bCases(wl MacroWorkload) []Case { return configCases(wl.op) }

// Fig11b prints both macrobenchmarks, normalised to Release.
func Fig11b(w io.Writer, iters int) error {
	for _, wl := range []MacroWorkload{OLTP, ClangBuild} {
		rows, err := timeCases(Fig11bCases(wl), iters, 1, "µs/tx", time.Microsecond)
		if err != nil {
			return err
		}
		Table(w, fmt.Sprintf("Figure 11b: %s (normalised run time)", wl), rows, "Release")
	}
	fmt.Fprintln(w, "  paper shape: macro overhead ≤1.35x, proportional to instrumentation")
	fmt.Fprintln(w)
	return nil
}

// fig12Threads is how many kernel threads share a figure 12 case's polls.
const fig12Threads = 4

// fig12Case splits the polls between fig12Threads kernel threads under one
// assertion in the given context. The global context's cost is cross-thread
// serialisation, which needs genuine parallelism to show, so the timed loop
// runs on fig12Threads Ps even on small hosts.
func fig12Case(name string, ctx spec.Context) Case {
	return Case{Name: name, Setup: func() (func(int), error) {
		auto := automata.MustCompile(spec.Assert("fig12", ctx, spec.WithinBound("amd64_syscall"),
			spec.Previously(spec.Call("mac_socket_check_poll", spec.AnyPtr(), spec.Var("so")).ReturnsInt(0))))
		k := kernel.New(kernel.Config{Monitor: monitor.MustNew(monitor.Options{}, auto)})
		polls := make([]func(int), fig12Threads)
		for t := range polls {
			var err error
			if polls[t], err = poll(k.NewThread()); err != nil {
				return nil, err
			}
		}
		return func(n int) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(fig12Threads))
			var wg sync.WaitGroup
			for t, p := range polls {
				share := n / fig12Threads
				if t < n%fig12Threads {
					share++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					p(share)
				}()
			}
			wg.Wait()
		}, nil
	}}
}

// Fig12Cases are the same poll assertion in the per-thread and the global
// context.
func Fig12Cases() []Case {
	return []Case{fig12Case("Per-thread", spec.PerThread), fig12Case("Global", spec.Global)}
}

// Fig12 prints the per-thread vs global comparison. Global assertions
// require explicit synchronisation, which comes at a run-time cost. The two
// contexts are measured in interleaved rounds so scheduler and cache drift
// do not bias either side.
func Fig12(w io.Writer, iters int) error {
	rows, err := timeCases(Fig12Cases(), iters, 8, "µs/op", time.Microsecond)
	if err != nil {
		return err
	}
	Table(w, "Figure 12: assertion context cost (poll syscall)", rows, "Per-thread")
	fmt.Fprintln(w, "  paper shape: global requires lock-based serialisation and is slower")
	fmt.Fprintln(w)
	return nil
}

// Fig13Cases are the naive (pre-optimisation) and lazy (post) runs of the
// §5.2.2 lazy-initialisation optimisation, in the order micro (one poll
// syscall per operation: MAC, then PROC assertions) and macro (OLTP and
// Clang build under every assertion).
func Fig13Cases() []Case {
	var cases []Case
	for _, cl := range []struct {
		label string
		sets  kernel.Set
		op    kernelOp
	}{
		{"MAC micro", kernel.SetM, poll},
		{"PROC micro", kernel.SetP, poll},
		{"OLTP", kernel.SetAll, OLTP.op},
		{"Clang build", kernel.SetAll, ClangBuild.op},
	} {
		cases = append(cases,
			kernelCase(cl.label+" pre", KernelConfig{Sets: cl.sets, Naive: true}, cl.op),
			kernelCase(cl.label+" post", KernelConfig{Sets: cl.sets}, cl.op))
	}
	return cases
}

// Fig13 prints the pre/post optimisation comparison of §5.2.2: the naive
// implementation did work on every system-call-related automaton at every
// syscall; the optimisation keeps a per-context record of init/cleanup
// events and initialises instances lazily.
func Fig13(w io.Writer, iters int) error {
	rows, err := timeCases(Fig13Cases(), iters, 1, "µs", time.Microsecond)
	if err != nil {
		return err
	}
	Table(w, "Figure 13: lazy-initialisation optimisation (micro, µs per poll)", rows[:4], "")
	Table(w, "Figure 13: lazy-initialisation optimisation (macro, µs per tx/step)", rows[4:], "")
	fmt.Fprintln(w, "  paper shape: pre-optimisation micro ≈100x over baseline, post <7x;")
	fmt.Fprintln(w, "  macro from 2-10x down to <10% overhead")
	fmt.Fprintln(w)
	return nil
}

// Fig14aCases are the Objective-C message-send ladder: release, tracing
// compiled in, trivial interposition, full TESLA.
func Fig14aCases() []Case {
	var cases []Case
	for _, mode := range []objc.TraceMode{objc.NoTracing, objc.TracingCompiled, objc.Interposed, objc.TESLA} {
		cases = append(cases, Case{Name: mode.String(), Setup: func() (func(int), error) {
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
				th := monitor.MustNew(monitor.Options{}, auto).NewThread()
				rt.InterposeTESLA(th, []string{"ping"}, nil)
				th.Call("loop")
			}
			return func(n int) {
				for i := 0; i < n; i++ {
					rt.MsgSend(obj, "ping")
				}
			}, nil
		}})
	}
	return cases
}

// Fig14a prints the Objective-C message-send ladder.
func Fig14a(w io.Writer, iters int) error {
	rows, err := timeCases(Fig14aCases(), iters, 1, "ns/msg", time.Nanosecond)
	if err != nil {
		return err
	}
	Table(w, "Figure 14a: Objective-C message-send microbenchmark", rows, "release")
	fmt.Fprintln(w, "  paper shape: TESLA up to ≈16x on the tight loop")
	fmt.Fprintln(w)
	return nil
}

// Fig14bMode is one of the four figure 14b configurations.
type Fig14bMode int

const (
	// BaselineMode has tracing compiled out.
	BaselineMode Fig14bMode = iota
	// InterpositionMode has trivial interposition on every selector.
	InterpositionMode
	// TESLAMode runs the fig. 8 automaton over all selectors.
	TESLAMode
	// TracingMode adds a custom event handler generating trace records.
	TracingMode
)

func (m Fig14bMode) String() string {
	return [...]string{"Baseline", "Interposition", "TESLA", "Tracing"}[m]
}

// traceRecorder is the custom handler of §3.5.3: it formats trace records
// for every instrumented event.
type traceRecorder struct {
	core.NopHandler
	records []string
}

func (t *traceRecorder) Transition(cls *core.Class, inst *core.Instance, from, to uint32, symbol string) {
	t.records = append(t.records, fmt.Sprintf("%s: %s %d->%d", cls.Name, symbol, from, to))
}

// Fig14bSetup builds a window's run loop in the given mode.
func Fig14bSetup(mode Fig14bMode) *gui.RunLoop {
	rt := objc.NewRuntime([...]objc.TraceMode{objc.NoTracing, objc.Interposed, objc.TESLA, objc.TESLA}[mode])
	var th *monitor.Thread
	switch mode {
	case InterpositionMode:
		for _, sel := range gui.AllSelectors() {
			rt.Interpose(sel, func(*objc.Object, string, []core.Value) {})
		}
	case TESLAMode, TracingMode:
		var events []spec.Expr
		for _, sel := range gui.AllSelectors() {
			events = append(events, spec.Msg(spec.Any("id"), sel))
		}
		auto := automata.MustCompile(spec.Within("gui:runloop", "startDrawing",
			spec.Previously(spec.AtLeast(0, events...))))
		var handler core.Handler
		if mode == TracingMode {
			handler = &traceRecorder{}
		}
		th = monitor.MustNew(monitor.Options{Handler: handler}, auto).NewThread()
		rt.InterposeTESLA(th, gui.AllSelectors(), []string{"drawWithFrame:inView:"})
	}

	w := gui.NewWindow(rt, gui.NewOldBackend())
	w.AddView(gui.Rect{X: 0, Y: 0, W: 200, H: 150}, 1, 8, false)
	w.AddView(gui.Rect{X: 200, Y: 0, W: 200, H: 150}, 2, 8, true)
	w.AddView(gui.Rect{X: 0, Y: 150, W: 400, H: 150}, 3, 12, false)
	w.AddTracking(gui.Rect{X: 0, Y: 0, W: 100, H: 100}, gui.CursorIBeam)
	w.AddTracking(gui.Rect{X: 200, Y: 0, W: 100, H: 100}, gui.CursorHand)
	return gui.NewRunLoop(w, th)
}

// Fig14bCases are the four redraw configurations. Each operation replays
// one batch of a 256-batch dialog session, cycling through it, and appends
// the batch's duration to *batches. Every 16th batch is a complete redraw.
func Fig14bCases(batches *[]time.Duration) []Case {
	script := xnee.DialogSession(256)
	var cases []Case
	for _, mode := range []Fig14bMode{BaselineMode, InterpositionMode, TESLAMode, TracingMode} {
		cases = append(cases, Case{Name: mode.String(), Setup: func() (func(int), error) {
			rl := Fig14bSetup(mode)
			return func(n int) {
				for i := 0; i < n; i++ {
					start := time.Now()
					rl.ProcessBatch(script.Batches[i%len(script.Batches)])
					*batches = append(*batches, time.Since(start))
				}
			}, nil
		}})
	}
	return cases
}

// Fig14b prints redraw-time percentiles per mode over iters batches.
func Fig14b(w io.Writer, iters int) error {
	fmt.Fprintln(w, "Figure 14b: window redraw times (Xnee replay)")
	fmt.Fprintf(w, "  %-16s %10s %10s %10s\n", "mode", "p50", "p95", "max")
	var batches []time.Duration
	for _, c := range Fig14bCases(&batches) {
		batches = batches[:0]
		if _, err := timeCases([]Case{c}, iters, 1, "", 1); err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-16s %10v %10v %10v\n", c.Name,
			Percentile(batches, 0.50), Percentile(batches, 0.95), Percentile(batches, 1.0))
	}
	fmt.Fprintln(w, "  paper shape: majority of redraws small (partial repaints); outliers are")
	fmt.Fprintln(w, "  complete redraws; with all tracing on, redraw stays animation-smooth")
	fmt.Fprintln(w)
	return nil
}
