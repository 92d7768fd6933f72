package monitor

import (
	"testing"

	"tesla/internal/core"
	"tesla/internal/faultinject"
)

// TestSupervisionPassthrough: store-level failure policies configured on
// monitor.Options reach both the global and per-thread stores. An injector
// that fails every allocation forces the first «init» into overflow; with
// QuarantineClass and QuarantineAfter 1, the class quarantines immediately
// and the monitor's merged health report shows it.
func TestSupervisionPassthrough(t *testing.T) {
	auto := mustAuto(t, "sp", `TESLA_SYSCALL_PREVIOUSLY(check(x) == 0)`, nil)
	inj := faultinject.New(3)
	inj.SetEvery(faultinject.SiteAlloc, 1)
	m := MustNew(Options{
		Overflow:        core.QuarantineClass,
		QuarantineAfter: 1,
		RearmEvents:     1 << 30,
		AllocFail: func(cls *core.Class) bool {
			return inj.Should(faultinject.SiteAlloc, cls.Name)
		},
	}, auto)
	th := m.NewThread()

	th.Call("amd64_syscall")
	th.Call("check", 5)
	th.Return("check", 0, 5)
	th.Site("sp", 5)
	th.Return("amd64_syscall", 0)

	hs := m.Health()
	if len(hs) != 1 || hs[0].Class != auto.Class.Name {
		t.Fatalf("Health() = %+v, want one entry for %s", hs, auto.Class.Name)
	}
	if !hs[0].Quarantined || hs[0].Quarantines == 0 || hs[0].Overflows == 0 {
		t.Fatalf("class never quarantined under total allocation failure: %+v", hs[0])
	}
	if !m.Degraded() {
		t.Fatal("Degraded() = false for a quarantined class")
	}
	if inj.TotalFired() == 0 {
		t.Fatal("injector never consulted: AllocFail passthrough broken")
	}
}

// TestHealthMergesThreads: per-thread stores contribute to the monitor-wide
// health report — violations recorded on two different threads sum into one
// per-class entry, and live instances total across stores.
func TestHealthMergesThreads(t *testing.T) {
	auto := mustAuto(t, "hm", `TESLA_SYSCALL_PREVIOUSLY(check(x) == 0)`, nil)
	m := MustNew(Options{}, auto)

	violate := func(th *Thread) {
		th.Call("amd64_syscall")
		th.Site("hm", 9) // no check(9) happened → NoInstance violation
		th.Return("amd64_syscall", 0)
	}
	violate(m.NewThread())
	violate(m.NewThread())

	hs := m.Health()
	if len(hs) != 1 {
		t.Fatalf("Health() = %+v, want one merged entry", hs)
	}
	if hs[0].Violations != 2 {
		t.Fatalf("merged Violations = %d, want 2 (one per thread)", hs[0].Violations)
	}
	if m.Degraded() {
		t.Fatalf("violations alone must not mark the monitor degraded: %+v", hs[0])
	}
}

// TestHealthCleanRun: a clean run reports no degradation and no violations.
func TestHealthCleanRun(t *testing.T) {
	auto := mustAuto(t, "cr", `TESLA_SYSCALL_PREVIOUSLY(check(x) == 0)`, nil)
	m := MustNew(Options{}, auto)
	th := m.NewThread()
	th.Call("amd64_syscall")
	th.Call("check", 5)
	th.Return("check", 0, 5)
	th.Site("cr", 5)
	th.Return("amd64_syscall", 0)
	for _, ch := range m.Health() {
		if ch.Degraded() || ch.Violations != 0 {
			t.Fatalf("clean run reports %+v", ch)
		}
	}
	if m.Degraded() {
		t.Fatal("clean run Degraded() = true")
	}
}

// TestSupervisionFailStopBatched: one fail-stop policy covers every
// automaton. With a staging ring far larger than the run, a verdict-bearing
// op of each of two automata — one per-thread, one global — still drains
// through and returns its violation from its own event call, not from a
// later flush.
func TestSupervisionFailStopBatched(t *testing.T) {
	pt := mustAuto(t, "pt", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`, nil)
	gl := mustAuto(t, "gl", `TESLA_GLOBAL(call(start_op), returnfrom(end_op), previously(prepare(x) == 0))`, nil)
	m := MustNew(Options{Failure: core.FailStop, BatchSize: 64}, pt, gl)
	th := m.NewThread()

	wantViolation := func(name string, err error) {
		t.Helper()
		v, ok := err.(*core.Violation)
		if !ok || v.Class.Name != name || v.Kind != core.VerdictNoInstance {
			t.Fatalf("site %s: err = %v, want its NoInstance violation at the call", name, err)
		}
	}
	th.Call("amd64_syscall")
	wantViolation("pt", th.Site("pt", 5))
	th.Call("start_op")
	wantViolation("gl", th.Site("gl", 5))
	if err := m.Drain(); err != nil {
		t.Fatalf("drain surfaced a violation the event calls already returned: %v", err)
	}
}
