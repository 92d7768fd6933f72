package gui

import (
	"strings"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/objc"
	"tesla/internal/spec"
)

// traceAutomaton builds the figure 8 tracing assertion over the full
// instrumented selector list.
func traceAutomaton(t *testing.T) *automata.Automaton {
	t.Helper()
	var events []spec.Expr
	for _, sel := range AllSelectors() {
		events = append(events, spec.Msg(spec.Any("id"), sel))
	}
	a := spec.Within("gui:runloop", "startDrawing",
		spec.Previously(spec.AtLeast(0, events...)))
	auto, err := automata.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	return auto
}

func teslaWindow(t *testing.T, be Backend, deliveryBug bool) (*Window, *RunLoop, *core.CountingHandler) {
	t.Helper()
	auto := traceAutomaton(t)
	h := core.NewCountingHandler()
	m := monitor.MustNew(monitor.Options{Handler: h}, auto)
	th := m.NewThread()
	rt := objc.NewRuntime(objc.TESLA)
	rt.InterposeTESLA(th, AllSelectors(), []string{"drawWithFrame:inView:"})
	w := NewWindow(rt, be)
	w.DeliveryBug = deliveryBug
	rl := NewRunLoop(w, th)
	return w, rl, h
}

func standardScene(w *Window) {
	w.AddView(Rect{0, 0, 200, 100}, 1, 4, false)
	w.AddView(Rect{0, 100, 200, 100}, 2, 4, true) // nested: non-LIFO restore
	w.AddView(Rect{200, 0, 200, 200}, 3, 6, false)
	w.AddTracking(Rect{0, 0, 100, 100}, CursorIBeam)
	w.AddTracking(Rect{200, 0, 100, 100}, CursorHand)
}

func TestBackendsAgreeOnLIFO(t *testing.T) {
	// Without non-LIFO restores, old and new back ends render the same.
	run := func(be Backend) int64 {
		rt := objc.NewRuntime(objc.NoTracing)
		w := NewWindow(rt, be)
		w.AddView(Rect{0, 0, 200, 100}, 1, 4, false)
		rl := NewRunLoop(w, nil)
		rl.ProcessBatch([]Event{{Kind: Expose}})
		return be.Checksum()
	}
	if a, b := run(NewOldBackend()), run(NewNewBackend()); a != b {
		t.Fatalf("LIFO-only scenes should agree: %d vs %d", a, b)
	}
}

// TestNonLIFOBackendBug reproduces the second §3.5.3 bug: the new back end
// cannot save and restore graphics states in a non-LIFO order, so scenes
// using that (valid) sequence render differently.
func TestNonLIFOBackendBug(t *testing.T) {
	run := func(be Backend) int64 {
		rt := objc.NewRuntime(objc.NoTracing)
		w := NewWindow(rt, be)
		standardScene(w)
		rl := NewRunLoop(w, nil)
		rl.ProcessBatch([]Event{{Kind: Expose}})
		rl.ProcessBatch([]Event{{Kind: Expose}})
		return be.Checksum()
	}
	old := run(NewOldBackend())
	new1 := run(NewNewBackend())
	if old == new1 {
		t.Fatal("non-LIFO scene should expose the new back end's bug")
	}
}

// TestTESLATraceLocalisesBackendBug: the event traces TESLA generates show
// the non-LIFO grestoreToken: following nested gsaves — exactly the
// sequence the new back end's author did not believe was valid.
func TestTESLATraceLocalisesBackendBug(t *testing.T) {
	w, rl, h := teslaWindow(t, NewNewBackend(), false)
	standardScene(w)
	rl.ProcessBatch([]Event{{Kind: Expose}})

	var sawToken, sawSave bool
	for e, n := range h.Edges() {
		if n == 0 {
			continue
		}
		if strings.Contains(e.Symbol, "grestoreToken:") {
			sawToken = true
		}
		if strings.Contains(e.Symbol, "gsave") {
			sawSave = true
		}
	}
	if !sawToken || !sawSave {
		t.Fatalf("trace missing the non-LIFO evidence: token=%v save=%v", sawToken, sawSave)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("tracing assertion must not fail: %v", vs)
	}
}

// TestCursorBugReproduced: with the event-delivery bug, an out-and-back-in
// movement within one batch pushes the same cursor twice with one pop —
// leaving the cursor stack wrong, as in the June 2013 GNUstep report.
func TestCursorBugReproduced(t *testing.T) {
	run := func(bug bool) (pushes, pops uint64, stack []int64) {
		w, rl, h := teslaWindow(t, NewOldBackend(), bug)
		w.AddTracking(Rect{0, 0, 100, 100}, CursorIBeam)
		// enter; scroll invalidates the tracking rects while the
		// pointer stays inside; wiggle; leave.
		rl.ProcessBatch([]Event{{Kind: MouseMove, X: 10, Y: 10}})
		rl.ProcessBatch([]Event{
			{Kind: Invalidate},
			{Kind: MouseMove, X: 12, Y: 10},
		})
		rl.ProcessBatch([]Event{{Kind: MouseMove, X: 200, Y: 10}})
		for e, n := range h.Edges() {
			if strings.Contains(e.Symbol, "push") {
				pushes += n
			}
			if strings.Contains(e.Symbol, "pop") {
				pops += n
			}
		}
		return pushes, pops, w.CursorStack
	}

	p1, q1, stack1 := run(false)
	if p1 != q1 || len(stack1) != 0 {
		t.Fatalf("correct delivery should balance: push=%d pop=%d stack=%v", p1, q1, stack1)
	}

	p2, q2, stack2 := run(true)
	if p2 <= q2 {
		t.Fatalf("bug should push more than pop: push=%d pop=%d", p2, q2)
	}
	if len(stack2) == 0 {
		t.Fatal("bug should leave a stuck cursor on the stack")
	}
}

// TestRedrawCounts: clicks repaint one view; expose repaints all.
func TestRedrawCounts(t *testing.T) {
	rt := objc.NewRuntime(objc.NoTracing)
	be := NewOldBackend()
	w := NewWindow(rt, be)
	standardScene(w)
	rl := NewRunLoop(w, nil)

	before := rt.MsgCount
	rl.ProcessBatch([]Event{{Kind: Click, X: 10, Y: 10}})
	partial := rt.MsgCount - before

	before = rt.MsgCount
	rl.ProcessBatch([]Event{{Kind: Expose}})
	full := rt.MsgCount - before

	if full <= partial {
		t.Fatalf("expose (%d sends) should out-draw a click (%d sends)", full, partial)
	}
}

// TestTraceModesLadder: each tracing mode adds dispatch work.
func TestTraceModesLadder(t *testing.T) {
	send := func(mode objc.TraceMode, interpose bool) uint64 {
		rt := objc.NewRuntime(mode)
		cls := objc.NewClass("Probe", nil)
		cls.AddMethod("ping", func(*objc.Runtime, *objc.Object, ...core.Value) core.Value { return 1 })
		obj := rt.NewObject(cls)
		if interpose {
			calls := 0
			rt.Interpose("ping", func(*objc.Object, string, []core.Value) { calls++ })
		}
		for i := 0; i < 100; i++ {
			rt.MsgSend(obj, "ping")
		}
		return rt.MsgCount
	}
	if send(objc.NoTracing, false) != 100 {
		t.Fatal("dispatch count wrong")
	}
	// Interposition hooks are ignored in NoTracing mode.
	rt := objc.NewRuntime(objc.NoTracing)
	cls := objc.NewClass("Probe", nil)
	hits := 0
	cls.AddMethod("ping", func(*objc.Runtime, *objc.Object, ...core.Value) core.Value { return 0 })
	rt.Interpose("ping", func(*objc.Object, string, []core.Value) { hits++ })
	obj := rt.NewObject(cls)
	rt.MsgSend(obj, "ping")
	if hits != 0 {
		t.Fatal("release build must not consult the interposition table")
	}
	rt.Mode = objc.Interposed
	rt.MsgSend(obj, "ping")
	if hits != 1 {
		t.Fatal("interposed build must fire the hook")
	}
}

// TestObjCInheritanceAndErrors covers method lookup through superclasses
// and unknown-selector panics.
func TestObjCInheritanceAndErrors(t *testing.T) {
	rt := objc.NewRuntime(objc.NoTracing)
	base := objc.NewClass("Base", nil)
	base.AddMethod("describe", func(*objc.Runtime, *objc.Object, ...core.Value) core.Value { return 7 })
	derived := objc.NewClass("Derived", base)
	obj := rt.NewObject(derived)
	if got := rt.MsgSend(obj, "describe"); got != 7 {
		t.Fatalf("inherited dispatch = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown selector should panic")
		}
	}()
	rt.MsgSend(obj, "nope")
}

// TestProfilerFindsRedundantRestores reproduces the §3.5.3 profiling
// finding: cells set their own colour and location, so the save/restore
// pairs around their draws are elidable — visible only in dynamic traces.
func TestProfilerFindsRedundantRestores(t *testing.T) {
	auto := traceAutomaton(t)
	prof := NewProfiler()
	m := monitor.MustNew(monitor.Options{Handler: prof}, auto)
	th := m.NewThread()
	rt := objc.NewRuntime(objc.TESLA)
	rt.InterposeTESLA(th, AllSelectors(), nil)
	w := NewWindow(rt, NewOldBackend())
	w.AddView(Rect{0, 0, 200, 100}, 1, 6, false) // per-cell save/restore pairs
	rl := NewRunLoop(w, th)
	rl.ProcessBatch([]Event{{Kind: Expose}})

	stats := AnalyzeSaveRestore(prof.Trace())
	if stats.Saves == 0 || stats.Saves != stats.Restores {
		t.Fatalf("unbalanced trace: %+v", stats)
	}
	// Every per-cell save window contains only colour/location/attribute
	// changes: all of them are elidable.
	if stats.Redundant == 0 {
		t.Fatalf("profiler found no optimisation opportunities: %+v", stats)
	}
	if stats.Redundant > stats.Restores {
		t.Fatalf("impossible stats: %+v", stats)
	}
}

func TestSelectorOf(t *testing.T) {
	cases := map[string]string{
		"[ANY(id) gsave]":                                "gsave",
		"[ANY(id) setColor: ANY(x)]":                     "setColor:",
		"[ANY(id) drawWithFrame: ANY(a) inView: ANY(b)]": "drawWithFrame:inView:",
		"plainsymbol":                                    "plainsymbol",
	}
	for in, want := range cases {
		if got := selectorOf(in); got != want {
			t.Errorf("selectorOf(%q) = %q, want %q", in, got, want)
		}
	}
}
