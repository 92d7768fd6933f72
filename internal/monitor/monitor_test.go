package monitor

import (
	"errors"
	"sync"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/spec"
)

func mustAuto(t *testing.T, name, src string, env *spec.Env) *automata.Automaton {
	t.Helper()
	a, err := spec.Parse(name, src, env)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := automata.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	return auto
}

// TestFig9EndToEnd drives the paper's running example through the dispatch
// layer: TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(ptr), so)==0).
func TestFig9EndToEnd(t *testing.T) {
	for _, naive := range []bool{false, true} {
		auto := mustAuto(t, "fig9",
			`TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(ptr), so) == 0)`, nil)
		h := core.NewCountingHandler()
		m := MustNew(Options{Handler: h, Naive: naive}, auto)
		th := m.NewThread()

		// Syscall 1: check performed for so=7, assertion passes.
		th.Call("amd64_syscall")
		th.Call("mac_socket_check_poll", 99, 7)
		th.Return("mac_socket_check_poll", 0, 99, 7)
		th.Site("fig9", 7)
		th.Return("amd64_syscall", 0)
		if vs := h.Violations(); len(vs) != 0 {
			t.Fatalf("naive=%v good syscall: %v", naive, vs)
		}

		// Syscall 2: check performed for so=7 but assertion site sees
		// so=8 — the error case of fig. 9.
		th.Call("amd64_syscall")
		th.Call("mac_socket_check_poll", 99, 7)
		th.Return("mac_socket_check_poll", 0, 99, 7)
		th.Site("fig9", 8)
		th.Return("amd64_syscall", 0)
		vs := h.Violations()
		if len(vs) != 1 || vs[0].Kind != core.VerdictNoInstance {
			t.Fatalf("naive=%v bad syscall: %v", naive, vs)
		}

		// Syscall 3: check returned non-zero — must not satisfy.
		th.Call("amd64_syscall")
		th.Call("mac_socket_check_poll", 99, 9)
		th.Return("mac_socket_check_poll", -13, 99, 9)
		th.Site("fig9", 9)
		th.Return("amd64_syscall", 0)
		if vs := h.Violations(); len(vs) != 2 {
			t.Fatalf("naive=%v failed check: %v", naive, vs)
		}

		// Syscall 4: no site reached — bypass, no violation.
		th.Call("amd64_syscall")
		th.Return("amd64_syscall", 0)
		if vs := h.Violations(); len(vs) != 2 {
			t.Fatalf("naive=%v bypass: %v", naive, vs)
		}
	}
}

func TestFailFastPropagates(t *testing.T) {
	auto := mustAuto(t, "ff", `TESLA_SYSCALL_PREVIOUSLY(check(x) == 0)`, nil)
	m := MustNew(Options{Failure: core.FailStop}, auto)
	th := m.NewThread()
	th.Call("amd64_syscall")
	err := th.Site("ff", 5)
	if err == nil {
		t.Fatal("expected violation error")
	}
	v, ok := err.(*core.Violation)
	if !ok || v.Kind != core.VerdictNoInstance {
		t.Fatalf("err = %v", err)
	}
}

// TestLazyEqualsNaive: both modes produce identical verdicts and accepts
// over a mixed workload with many automata sharing a bound.
func TestLazyEqualsNaive(t *testing.T) {
	build := func() []*automata.Automaton {
		return []*automata.Automaton{
			mustAuto(t, "a1", `TESLA_SYSCALL_PREVIOUSLY(chk1(x) == 0)`, nil),
			mustAuto(t, "a2", `TESLA_SYSCALL_PREVIOUSLY(chk2(y) == 0)`, nil),
			mustAuto(t, "a3", `TESLA_SYSCALL(eventually(fin(z) == 0))`, nil),
			mustAuto(t, "a4", `TESLA_WITHIN(pagefault, previously(chk1(x) == 0))`, nil),
		}
	}
	run := func(naive bool) ([]*core.Violation, map[string]uint64) {
		h := core.NewCountingHandler()
		m := MustNew(Options{Handler: h, Naive: naive}, build()...)
		th := m.NewThread()
		// Syscall with chk1 and a1's site.
		th.Call("amd64_syscall")
		th.Call("chk1", 1)
		th.Return("chk1", 0, 1)
		th.Site("a1", 1)
		th.Return("amd64_syscall", 0)
		// Syscall hitting a2's site without chk2 → violation.
		th.Call("amd64_syscall")
		th.Site("a2", 2)
		th.Return("amd64_syscall", 0)
		// Syscall hitting a3's site without fin → incomplete.
		th.Call("amd64_syscall")
		th.Site("a3", 3)
		th.Return("amd64_syscall", 0)
		// Page fault path for a4.
		th.Call("pagefault")
		th.Call("chk1", 4)
		th.Return("chk1", 0, 4)
		th.Site("a4", 4)
		th.Return("pagefault", 0)
		// Empty syscalls: lazy mode should do nothing per automaton.
		for i := 0; i < 10; i++ {
			th.Call("amd64_syscall")
			th.Return("amd64_syscall", 0)
		}
		accepts := map[string]uint64{}
		for _, name := range []string{"a1", "a2", "a3", "a4"} {
			accepts[name] = h.Accepts(name)
		}
		return h.Violations(), accepts
	}

	vN, aN := run(true)
	vL, aL := run(false)
	if len(vN) != len(vL) {
		t.Fatalf("violations differ: naive=%v lazy=%v", vN, vL)
	}
	for i := range vN {
		if vN[i].Kind != vL[i].Kind || vN[i].Class.Name != vL[i].Class.Name {
			t.Errorf("violation %d differs: %v vs %v", i, vN[i], vL[i])
		}
	}
	for name := range aL {
		// Naive mode accepts every automaton on every bound exit (the
		// (∗) instance always finalises); lazy mode only touches
		// automata that saw real events, so accept counts differ — but
		// an automaton accepted under lazy must accept under naive.
		if aL[name] > aN[name] {
			t.Errorf("%s: lazy accepts %d > naive %d", name, aL[name], aN[name])
		}
	}
}

func TestGlobalContextSharedAcrossThreads(t *testing.T) {
	src := `TESLA_GLOBAL(call(start_op), returnfrom(end_op), previously(prepare(x) == 0))`
	auto := mustAuto(t, "glob", src, nil)
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h}, auto)

	t1 := m.NewThread()
	t2 := m.NewThread()

	// Thread 1 opens the bound and prepares; thread 2 reaches the site.
	t1.Call("start_op")
	t1.Call("prepare", 5)
	t1.Return("prepare", 0, 5)
	t2.Site("glob", 5)
	t1.Return("end_op", 0)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("cross-thread previously failed: %v", vs)
	}
	if m.GlobalStore().LiveCount(auto.Class) != 0 {
		t.Error("cleanup did not expunge global instances")
	}
}

func TestPerThreadIsolation(t *testing.T) {
	auto := mustAuto(t, "iso", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`, nil)
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h}, auto)
	t1 := m.NewThread()
	t2 := m.NewThread()

	// Thread 1 performs the check; thread 2 reaches the site — per-thread
	// automata must NOT see thread 1's event.
	t1.Call("amd64_syscall")
	t1.Call("chk", 5)
	t1.Return("chk", 0, 5)
	t2.Call("amd64_syscall")
	t2.Site("iso", 5)
	if vs := h.Violations(); len(vs) != 1 || vs[0].Kind != core.VerdictNoInstance {
		t.Fatalf("per-thread isolation broken: %v", vs)
	}
}

func TestFieldAssignEvents(t *testing.T) {
	env := &spec.Env{
		Consts:     map[string]int64{"P_SUGID": 0x100},
		VarStructs: map[string]string{"p": "proc"},
	}
	// If credentials change, the sugid flag must eventually be set.
	auto := mustAuto(t, "sugid",
		`TESLA_SYSCALL(eventually(p.p_flag = P_SUGID))`, env)
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h}, auto)
	th := m.NewThread()

	// Good path.
	th.Call("amd64_syscall")
	th.Site("sugid", 77) // p = 77
	th.Assign("proc", "p_flag", 77, spec.OpAssign, 0x100)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("good path: %v", vs)
	}

	// Wrong value assigned: obligation unmet.
	th.Call("amd64_syscall")
	th.Site("sugid", 78)
	th.Assign("proc", "p_flag", 78, spec.OpAssign, 0x1)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 1 || vs[0].Kind != core.VerdictIncomplete {
		t.Fatalf("wrong value: %v", vs)
	}

	// Wrong struct instance: still unmet.
	th.Call("amd64_syscall")
	th.Site("sugid", 79)
	th.Assign("proc", "p_flag", 80, spec.OpAssign, 0x100)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 2 {
		t.Fatalf("wrong target: %v", vs)
	}
}

func TestFieldIncrAndAddAssign(t *testing.T) {
	env := &spec.Env{VarStructs: map[string]string{"s": "counter"}}
	auto := mustAuto(t, "incr", `TESLA_SYSCALL(eventually(s.n++))`, env)
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h}, auto)
	th := m.NewThread()

	th.Call("amd64_syscall")
	th.Site("incr", 5)
	th.Assign("counter", "n", 5, spec.OpIncr, 0)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("incr: %v", vs)
	}
	// += with the wrong op does not match ++.
	th.Call("amd64_syscall")
	th.Site("incr", 6)
	th.Assign("counter", "n", 6, spec.OpAddAssign, 1)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 1 {
		t.Fatalf("op mismatch: %v", vs)
	}
}

func TestObjCMessages(t *testing.T) {
	auto := mustAuto(t, "objc",
		`TESLA_WITHIN(runloop, previously(ATLEAST(0, [ANY(id) push], [ANY(id) pop])))`, nil)
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h}, auto)
	th := m.NewThread()

	th.Call("runloop")
	th.Send("push", 1)
	th.Send("push", 2)
	th.Send("pop", 2)
	th.Site("objc")
	th.Return("runloop", 0)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("objc trace: %v", vs)
	}
	var pushes uint64
	for e, n := range h.Edges() {
		if e.Symbol == "[ANY(id) push]" {
			pushes += n
		}
	}
	if pushes != 2 {
		t.Errorf("push events observed = %d, want 2", pushes)
	}
}

func TestInCallStack(t *testing.T) {
	auto := mustAuto(t, "ics",
		`TESLA_SYSCALL(incallstack(ufs_readdir) || previously(mac_check(vp) == 0))`, nil)
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h}, auto)
	th := m.NewThread()

	// Within ufs_readdir: no MAC check needed.
	th.Call("amd64_syscall")
	th.Call("ufs_readdir")
	th.Site("ics", 4)
	th.Return("ufs_readdir", 0)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("incallstack path: %v", vs)
	}

	// Outside ufs_readdir without the check: violation.
	th.Call("amd64_syscall")
	th.Site("ics", 4)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 1 {
		t.Fatalf("unprotected path: %v", vs)
	}

	// Outside ufs_readdir with the check: fine.
	th.Call("amd64_syscall")
	th.Call("mac_check", 4)
	th.Return("mac_check", 0, 4)
	th.Site("ics", 4)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 1 {
		t.Fatalf("checked path: %v", vs)
	}
}

func TestIndirectPatternWithMemory(t *testing.T) {
	mem := memMap{100: 0} // address 100 holds 0
	auto := mustAuto(t, "ind",
		`TESLA_SYSCALL_PREVIOUSLY(getlock(&err) == 1)`, nil)
	_ = auto
	// &err is a variable capture through memory: the captured slot value
	// is the pointee. Use a const pattern instead for the check:
	auto2 := mustAuto(t, "ind2",
		`TESLA_SYSCALL_PREVIOUSLY(getlock(&0) == 1)`, nil)
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h, Memory: mem}, auto2)
	th := m.NewThread()

	th.Call("amd64_syscall")
	th.Call("getlock", 100) // arg points at 0
	th.Return("getlock", 1, 100)
	th.Site("ind2")
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("indirect match: %v", vs)
	}

	// Pointee mismatch.
	mem[100] = 7
	th.Call("amd64_syscall")
	th.Call("getlock", 100)
	th.Return("getlock", 1, 100)
	th.Site("ind2")
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 1 {
		t.Fatalf("indirect mismatch: %v", vs)
	}
}

type memMap map[core.Value]core.Value

func (m memMap) Load(a core.Value) (core.Value, bool) {
	v, ok := m[a]
	return v, ok
}

func TestUnknownSite(t *testing.T) {
	m := MustNew(Options{})
	th := m.NewThread()
	if err := th.Site("nope"); err == nil {
		t.Fatal("expected unknown-site error")
	} else if !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("Site(\"nope\"): %v, want ErrUnknownSite", err)
	}
}

// TestBoundSlotOutOfRange: a bound hook naming a slot the plan does not
// have is an error, not a crash, whether or not a tap is recording.
func TestBoundSlotOutOfRange(t *testing.T) {
	auto := mustAuto(t, "one", `TESLA_SYSCALL_PREVIOUSLY(f(x) == 0)`, nil)
	for _, opts := range []Options{{}, {Tap: &orderTap{}}, {Tap: &orderTap{}, BatchSize: 4}} {
		th := MustNew(opts, auto).NewThread()
		for _, slot := range []int{7, 1, -1} {
			if err := th.BoundBegin(slot); err == nil {
				t.Errorf("BoundBegin(%d) on a one-slot monitor: no error", slot)
			}
			if err := th.BoundEnd(slot); err == nil {
				t.Errorf("BoundEnd(%d) on a one-slot monitor: no error", slot)
			}
		}
		if err := th.BoundBegin(0); err != nil {
			t.Fatal(err)
		}
		if err := th.BoundEnd(0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDuplicateAutomatonName(t *testing.T) {
	a1 := mustAuto(t, "dup", `TESLA_SYSCALL_PREVIOUSLY(f(x) == 0)`, nil)
	a2 := mustAuto(t, "dup", `TESLA_SYSCALL_PREVIOUSLY(g(x) == 0)`, nil)
	if _, err := New(Options{}, a1, a2); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestDuplicateVariableConsistency(t *testing.T) {
	// The same variable twice in one event: both positions must agree.
	auto := mustAuto(t, "dupvar", `TESLA_SYSCALL_PREVIOUSLY(transfer(x, x) == 0)`, nil)
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h}, auto)
	th := m.NewThread()

	th.Call("amd64_syscall")
	th.Call("transfer", 3, 4) // mismatched: not a matching event
	th.Return("transfer", 0, 3, 4)
	th.Site("dupvar", 3)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 1 {
		t.Fatalf("mismatched duplicate var should not satisfy: %v", vs)
	}

	th.Call("amd64_syscall")
	th.Call("transfer", 5, 5)
	th.Return("transfer", 0, 5, 5)
	th.Site("dupvar", 5)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 1 {
		t.Fatalf("matching duplicate var should satisfy: %v", vs)
	}
}

func TestReturnValueCapture(t *testing.T) {
	// The return value itself binds a variable: alloc() == p, then use(p).
	auto := mustAuto(t, "retvar",
		`TESLA_SYSCALL_PREVIOUSLY(alloc() == p, use(p) == 0)`, nil)
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h}, auto)
	th := m.NewThread()

	th.Call("amd64_syscall")
	th.Call("alloc")
	th.Return("alloc", 42)
	th.Call("use", 42)
	th.Return("use", 0, 42)
	th.Site("retvar", 42)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("retvar chain: %v", vs)
	}

	// use() on a different pointer than alloc returned.
	th.Call("amd64_syscall")
	th.Call("alloc")
	th.Return("alloc", 42)
	th.Call("use", 43)
	th.Return("use", 0, 43)
	th.Site("retvar", 43)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 1 {
		t.Fatalf("mismatched pointer: %v", vs)
	}
}

// TestFreeVariables pins the §7 "free variables" capability: an assertion
// can bind events together with values that are no longer known at the
// assertion site. Here `owner` is bound by the create event and checked for
// consistency by the grant event, but the site only knows the handle.
func TestFreeVariables(t *testing.T) {
	auto := mustAuto(t, "free",
		`TESLA_SYSCALL_PREVIOUSLY(create(h) == owner, grant(owner, h) == 0)`, nil)
	// Vars: h (slot 0), owner (slot 1); the site provides only h.
	if got := auto.Vars; len(got) != 2 || got[0] != "h" || got[1] != "owner" {
		t.Fatalf("vars = %v", got)
	}
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h}, auto)
	th := m.NewThread()

	// Consistent run: create(7) returned owner 42; grant(42, 7).
	th.Call("amd64_syscall")
	th.Call("create", 7)
	th.Return("create", 42, 7)
	th.Call("grant", 42, 7)
	th.Return("grant", 0, 42, 7)
	th.Site("free", 7) // owner is no longer in scope: site binds h only
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("consistent run: %v", vs)
	}

	// Inconsistent: grant ran with a different owner than create returned.
	th.Call("amd64_syscall")
	th.Call("create", 8)
	th.Return("create", 42, 8)
	th.Call("grant", 99, 8)
	th.Return("grant", 0, 99, 8)
	th.Site("free", 8)
	th.Return("amd64_syscall", 0)
	if vs := h.Violations(); len(vs) != 1 {
		t.Fatalf("owner mismatch not detected: %v", vs)
	}
}

// TestGlobalCloneCleanupInterleaving hammers the global store's clone and
// cleanup paths from many concurrent threads: each goroutine creates its
// own monitor thread, opens the shared global bound, prepares a keyed
// instance (forcing a clone of the (∗) instance), reaches the site and
// closes the bound, while an observer snapshots the store. Verdicts are
// timing-dependent (another thread's bound exit may expunge an instance
// first), so the assertions are the structural invariants that must hold
// under every interleaving: no duplicate active keys, live count within
// the class limit, no overflow, and an empty store after a final cleanup.
func TestGlobalCloneCleanupInterleaving(t *testing.T) {
	src := `TESLA_GLOBAL(call(start_op), returnfrom(end_op), previously(prepare(x) == 0))`
	auto := mustAuto(t, "glob", src, nil)
	h := core.NewCountingHandler()
	m := MustNew(Options{Handler: h}, auto)

	checkSnapshot := func() {
		seen := map[core.Key]bool{}
		live := 0
		for _, inst := range m.GlobalStore().Instances(auto.Class) {
			if !inst.Active {
				continue
			}
			live++
			if inst.Key.Mask != 0 {
				if seen[inst.Key] {
					t.Errorf("duplicate active key %s in global store", inst.Key)
				}
				seen[inst.Key] = true
			}
		}
		if live > core.DefaultInstanceLimit {
			t.Errorf("live instances %d exceed limit %d", live, core.DefaultInstanceLimit)
		}
	}

	const goroutines = 8
	const rounds = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Observer: concurrent store snapshots while events fly.
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
				checkSnapshot()
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := m.NewThread()
			for r := 0; r < rounds; r++ {
				x := core.Value(g*rounds + r)
				th.Call("start_op")
				th.Call("prepare", x)
				th.Return("prepare", 0, x)
				th.Site("glob", x)
				th.Return("end_op", 0)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	obs.Wait()
	checkSnapshot()

	for _, v := range h.Violations() {
		// Interleaved cleanup may legitimately yield no-instance verdicts;
		// anything else means the automaton itself misbehaved.
		if v.Kind != core.VerdictNoInstance {
			t.Fatalf("unexpected verdict under interleaving: %v", v)
		}
	}

	// A final bound cycle must expunge everything the run left behind.
	th := m.NewThread()
	th.Call("start_op")
	th.Return("end_op", 0)
	if n := m.GlobalStore().LiveCount(auto.Class); n != 0 {
		t.Fatalf("%d live instances after final cleanup", n)
	}
}

// TestThreadIDsUniqueUnderConcurrency pins the thread numbering used for
// trace attribution: concurrent NewThread calls must hand out distinct IDs.
func TestThreadIDsUniqueUnderConcurrency(t *testing.T) {
	auto := mustAuto(t, "ids", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`, nil)
	m := MustNew(Options{}, auto)
	const n = 32
	ids := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids <- m.NewThread().ID()
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[int]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate thread id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct ids, want %d", len(seen), n)
	}
}
