package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fig9Class builds the automaton of figure 9:
//
//	TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(ptr), so) == 0)
//
// States: 0 pre-init, 1 in-syscall (∗), 2 check done (so), 4 assertion
// passed (so). Cleanup (syscall exit) is legal from states 1, 2 and 4.
func fig9Class() *Class {
	return &Class{
		Name:        "mac.c:42",
		Description: "TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(ptr), so) == 0)",
		States:      5,
		Limit:       8,
	}
}

const (
	symSyscallEnter = "call(amd64_syscall)"
	symMACCheck     = "mac_socket_check_poll(∗,so)==0"
	symAssert       = "«assertion»"
	symSyscallExit  = "returnfrom(amd64_syscall)"
)

func fig9Sets() (enter, check, site, exit TransitionSet) {
	enter = TransitionSet{{From: 0, To: 1, Flags: TransInit}}
	check = TransitionSet{
		{From: 1, To: 2, KeyMask: 1},
		{From: 2, To: 2, KeyMask: 1},
	}
	site = TransitionSet{
		{From: 2, To: 4, KeyMask: 1},
		{From: 4, To: 4, KeyMask: 1},
	}
	exit = TransitionSet{
		{From: 1, To: 3, Flags: TransCleanup},
		{From: 2, To: 3, Flags: TransCleanup},
		{From: 4, To: 3, Flags: TransCleanup},
	}
	return
}

func TestFig9Lifecycle(t *testing.T) {
	cls := fig9Class()
	h := NewCountingHandler()
	s := NewStoreOpts(StoreOpts{Context: PerThread, Handler: h})
	s.Register(cls)
	enter, check, site, exit := fig9Sets()

	// «init»: entering the syscall creates (∗) in state 1.
	if err := s.UpdateStatePlan(NewSymbolPlan(cls, symSyscallEnter, 0, enter), AnyKey); err != nil {
		t.Fatal(err)
	}
	insts := s.Instances(cls)
	if len(insts) != 1 || insts[0].State != 1 || insts[0].Key != AnyKey {
		t.Fatalf("after init: %+v", insts)
	}

	// Clone: a successful check on so=7 forks (7) into state 2; (∗) stays.
	so := NewKey(7)
	if err := s.UpdateStatePlan(NewSymbolPlan(cls, symMACCheck, 0, check), so); err != nil {
		t.Fatal(err)
	}
	insts = s.Instances(cls)
	if len(insts) != 2 {
		t.Fatalf("after clone: %+v", insts)
	}
	var star, seven *Instance
	for i := range insts {
		switch insts[i].Key {
		case AnyKey:
			star = &insts[i]
		case so:
			seven = &insts[i]
		}
	}
	if star == nil || star.State != 1 {
		t.Fatalf("parent (∗) wrong: %+v", insts)
	}
	if seven == nil || seven.State != 2 {
		t.Fatalf("clone (7) wrong: %+v", insts)
	}

	// A second distinct value forks another clone.
	if err := s.UpdateStatePlan(NewSymbolPlan(cls, symMACCheck, 0, check), NewKey(9)); err != nil {
		t.Fatal(err)
	}
	if n := s.LiveCount(cls); n != 3 {
		t.Fatalf("after second clone: live=%d", n)
	}

	// Update: assertion site with so=7 advances (7) to state 4.
	if err := s.UpdateStatePlan(NewSymbolPlan(cls, symAssert, SymRequired, site), so); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range s.Instances(cls) {
		if in.Key == so && in.State == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("assertion did not advance (7): %+v", s.Instances(cls))
	}

	// «cleanup»: syscall exit accepts all and expunges.
	if err := s.UpdateStatePlan(NewSymbolPlan(cls, symSyscallExit, 0, exit), AnyKey); err != nil {
		t.Fatal(err)
	}
	if n := s.LiveCount(cls); n != 0 {
		t.Fatalf("after cleanup: live=%d", n)
	}
	if len(h.Violations()) != 0 {
		t.Fatalf("unexpected violations: %v", h.Violations())
	}
	if h.Accepts(cls.Name) != 3 {
		t.Fatalf("accepts = %d, want 3", h.Accepts(cls.Name))
	}
}

func TestFig9ErrorNoInstance(t *testing.T) {
	cls := fig9Class()
	h := NewCountingHandler()
	s := NewStoreOpts(StoreOpts{Context: PerThread, Handler: h, Failure: FailStop})
	s.Register(cls)
	enter, check, site, _ := fig9Sets()

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.UpdateStatePlan(NewSymbolPlan(cls, symSyscallEnter, 0, enter), AnyKey))
	must(s.UpdateStatePlan(NewSymbolPlan(cls, symMACCheck, 0, check), NewKey(7)))

	// Assertion site reached with so=3: mac_socket_check_poll(∗,3) never
	// returned 0, so no instance can be found to update (fig. 9 “Error”).
	err := s.UpdateStatePlan(NewSymbolPlan(cls, symAssert, SymRequired, site), NewKey(3))
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("want *Violation, got %v", err)
	}
	if v.Kind != VerdictNoInstance {
		t.Fatalf("kind = %v", v.Kind)
	}
	if !strings.Contains(v.Error(), "mac_socket_check_poll") {
		t.Fatalf("violation should cite assertion text: %s", v.Error())
	}
	if len(h.Violations()) != 1 {
		t.Fatalf("handler saw %d violations", len(h.Violations()))
	}
}

func TestEventuallyIncompleteAtCleanup(t *testing.T) {
	// eventually(audit(x)): after the assertion site, audit must happen
	// before the bound exits. State 1 = in bound, 2 = past site (no
	// cleanup edge!), 3 = audited.
	cls := &Class{Name: "audit", Description: "eventually(audit(x))", States: 5, Limit: 4}
	h := NewCountingHandler()
	s := NewStoreOpts(StoreOpts{Context: PerThread, Handler: h})
	s.Register(cls)

	// The assertion site binds x from the local scope (§4.2), so the site
	// event carries the key; audit(x) then updates the specific instance
	// in place. The (∗) parent left in state 1 exits via the bypass edge.
	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
	site := TransitionSet{{From: 1, To: 2, KeyMask: 1}}
	audit := TransitionSet{{From: 2, To: 3, KeyMask: 1}}
	exit := TransitionSet{
		{From: 1, To: 4, Flags: TransCleanup},
		{From: 3, To: 4, Flags: TransCleanup},
	}

	// Path 1: obligation satisfied.
	s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
	s.UpdateStatePlan(NewSymbolPlan(cls, "site", SymRequired, site), NewKey(1))
	s.UpdateStatePlan(NewSymbolPlan(cls, "audit", 0, audit), NewKey(1))
	s.UpdateStatePlan(NewSymbolPlan(cls, "exit", 0, exit), AnyKey)
	if len(h.Violations()) != 0 {
		t.Fatalf("satisfied path reported violations: %v", h.Violations())
	}

	// Path 2: site reached but audit never happens before cleanup.
	s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
	s.UpdateStatePlan(NewSymbolPlan(cls, "site", SymRequired, site), NewKey(1))
	s.UpdateStatePlan(NewSymbolPlan(cls, "exit", 0, exit), AnyKey)
	vs := h.Violations()
	if len(vs) != 1 || vs[0].Kind != VerdictIncomplete {
		t.Fatalf("want one incomplete violation, got %v", vs)
	}
	if s.LiveCount(cls) != 0 {
		t.Fatal("cleanup must expunge even failing instances")
	}

	// Path 3: bound entered and exited without touching the site — the
	// bypass cleanup edge from state 1 makes that legal.
	s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
	s.UpdateStatePlan(NewSymbolPlan(cls, "exit", 0, exit), AnyKey)
	if len(h.Violations()) != 1 {
		t.Fatalf("bypass path must not add violations: %v", h.Violations())
	}
}

func TestStrictViolation(t *testing.T) {
	cls := &Class{Name: "strict", Description: "strict ordering", States: 3, Limit: 4}
	h := NewCountingHandler()
	s := NewStoreOpts(StoreOpts{Context: PerThread, Handler: h})
	s.Register(cls)

	s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, TransitionSet{{From: 0, To: 1, Flags: TransInit}}), AnyKey)
	// Event B is only legal from state 2; in strict mode observing it in
	// state 1 is a violation and deactivates the instance.
	s.UpdateStatePlan(NewSymbolPlan(cls, "B", SymStrict, TransitionSet{{From: 2, To: 2}}), AnyKey)
	vs := h.Violations()
	if len(vs) != 1 || vs[0].Kind != VerdictBadTransition {
		t.Fatalf("want bad-transition, got %v", vs)
	}
	if s.LiveCount(cls) != 0 {
		t.Fatal("strict violation should deactivate the instance")
	}
}

func TestNonStrictIgnoresIrrelevantEvent(t *testing.T) {
	cls := &Class{Name: "lax", States: 3, Limit: 4}
	h := NewCountingHandler()
	s := NewStoreOpts(StoreOpts{Context: PerThread, Handler: h})
	s.Register(cls)

	s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, TransitionSet{{From: 0, To: 1, Flags: TransInit}}), AnyKey)
	s.UpdateStatePlan(NewSymbolPlan(cls, "B", 0, TransitionSet{{From: 2, To: 2}}), AnyKey)
	if len(h.Violations()) != 0 {
		t.Fatalf("non-strict must ignore: %v", h.Violations())
	}
	if s.LiveCount(cls) != 1 {
		t.Fatal("instance should survive")
	}
}

func TestEventsIgnoredBeforeInit(t *testing.T) {
	cls := &Class{Name: "preinit", States: 3, Limit: 4}
	h := NewCountingHandler()
	s := NewStoreOpts(StoreOpts{Context: PerThread, Handler: h})
	s.Register(cls)

	// Non-init, non-required event before any «init» is ignored.
	s.UpdateStatePlan(NewSymbolPlan(cls, "check", 0, TransitionSet{{From: 1, To: 2, KeyMask: 1}}), NewKey(5))
	if s.LiveCount(cls) != 0 || len(h.Violations()) != 0 {
		t.Fatalf("pre-init event must be ignored: live=%d, v=%v", s.LiveCount(cls), h.Violations())
	}
}

func TestInitIsIdempotentPerKey(t *testing.T) {
	cls := &Class{Name: "dup", States: 3, Limit: 4}
	s := NewStoreOpts(StoreOpts{Context: PerThread})
	s.Register(cls)
	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}

	s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
	s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
	if n := s.LiveCount(cls); n != 1 {
		t.Fatalf("duplicate init created %d instances", n)
	}
}

func TestCloneDedup(t *testing.T) {
	cls := fig9Class()
	s := NewStoreOpts(StoreOpts{Context: PerThread})
	s.Register(cls)
	enter, check, _, _ := fig9Sets()

	s.UpdateStatePlan(NewSymbolPlan(cls, symSyscallEnter, 0, enter), AnyKey)
	s.UpdateStatePlan(NewSymbolPlan(cls, symMACCheck, 0, check), NewKey(7))
	s.UpdateStatePlan(NewSymbolPlan(cls, symMACCheck, 0, check), NewKey(7))
	// (∗) in state 1 and (7) in state 2 — the repeat check self-loops (7)
	// rather than cloning a duplicate.
	if n := s.LiveCount(cls); n != 2 {
		t.Fatalf("duplicate clone: live=%d", n)
	}
}

func TestOverflowReported(t *testing.T) {
	cls := &Class{Name: "tiny", States: 3, Limit: 2}
	h := NewCountingHandler()
	overflowed := 0
	s := NewStoreOpts(StoreOpts{Context: PerThread, Handler: MultiHandler{h, overflowCounter{&overflowed}}, Failure: FailStop})
	s.Register(cls)

	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
	check := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 2, KeyMask: 1}}
	s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
	s.UpdateStatePlan(NewSymbolPlan(cls, "check", 0, check), NewKey(1)) // fills slot 2
	err := s.UpdateStatePlan(NewSymbolPlan(cls, "check", 0, check), NewKey(2))
	if err != ErrOverflow {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
	if overflowed != 1 {
		t.Fatalf("overflow notifications = %d", overflowed)
	}
	// The store still functions: existing instances are intact.
	if n := s.LiveCount(cls); n != 2 {
		t.Fatalf("live=%d", n)
	}
}

// TestDroppedCloneConsumesEvent pins lifecycle rule 3 (model_test.go): a
// candidate whose clone the overflow policy drops has still consumed the
// event. The event must then neither report a missing instance at a
// required site — lost coverage is the monitor's fault, not the program's —
// nor start an «init» instance it would not have started had the clone
// been placed.
func TestDroppedCloneConsumesEvent(t *testing.T) {
	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}, {From: 1, To: 2, KeyMask: 1}}
	site := TransitionSet{{From: 2, To: 3, KeyMask: 1}}
	for _, l := range layouts {
		t.Run("site/"+l.String(), func(t *testing.T) {
			cls := &Class{Name: "full", States: 4, Limit: 1}
			h := &noteHandler{}
			s := l.store(StoreOpts{Handler: h})
			s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey) // (∗) in state 1
			s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey) // (∗) moves to 2
			// (∗) can take the site edge but its clone (5) finds no slot.
			if err := s.UpdateStatePlan(NewSymbolPlan(cls, "site", SymRequired, site), NewKey(5)); err != nil {
				t.Fatal(err)
			}
			if hl := storeHealth(s, cls); hl.Overflows != 1 || hl.Violations != 0 {
				t.Fatalf("health %+v, want one overflow and no violation", hl)
			}
		})
		t.Run("init/"+l.String(), func(t *testing.T) {
			cls := &Class{Name: "refused", States: 4, Limit: 4}
			refusals := 0
			s := l.store(StoreOpts{AllocFail: func(*Class) bool {
				refusals--
				return refusals >= 0
			}})
			s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey) // (∗) in state 1
			// (∗) forks (3), and the injector refuses that one slot.
			refusals = 1
			s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), NewKey(3))
			if got := instSet(s, cls); !reflect.DeepEqual(got, []string{"(∗)|1"}) {
				t.Fatalf("instances %v, want only (∗) in state 1", got)
			}
			if hl := storeHealth(s, cls); hl.Overflows != 1 {
				t.Fatalf("health %+v, want one overflow", hl)
			}
		})
	}
}

type overflowCounter struct{ n *int }

func (overflowCounter) InstanceNew(*Class, *Instance)                        {}
func (overflowCounter) InstanceClone(*Class, *Instance, *Instance)           {}
func (overflowCounter) Transition(*Class, *Instance, uint32, uint32, string) {}
func (overflowCounter) Accept(*Class, *Instance)                             {}
func (overflowCounter) Fail(*Violation)                                      {}
func (c overflowCounter) Overflow(*Class, Key)                               { *c.n++ }
func (overflowCounter) Evict(*Class, *Instance)                              {}
func (overflowCounter) Quarantine(*Class, bool)                              {}

func TestImplicitRegistration(t *testing.T) {
	cls := &Class{Name: "implicit", States: 2, Limit: 2}
	s := NewStoreOpts(StoreOpts{Context: PerThread})
	// No Register call: UpdateStatePlan registers on first use.
	s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, TransitionSet{{From: 0, To: 1, Flags: TransInit}}), AnyKey)
	if !s.Registered(cls) {
		t.Fatal("implicit registration failed")
	}
	if s.LiveCount(cls) != 1 {
		t.Fatal("instance not created")
	}
}

func TestResetAndResetClass(t *testing.T) {
	a := &Class{Name: "a", States: 2, Limit: 2}
	b := &Class{Name: "b", States: 2, Limit: 2}
	s := NewStoreOpts(StoreOpts{Context: PerThread})
	s.Register(a)
	s.Register(b)
	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
	s.UpdateStatePlan(NewSymbolPlan(a, "enter", 0, enter), AnyKey)
	s.UpdateStatePlan(NewSymbolPlan(b, "enter", 0, enter), AnyKey)

	s.ResetClass(a)
	if s.LiveCount(a) != 0 || s.LiveCount(b) != 1 {
		t.Fatal("ResetClass touched wrong class")
	}
	s.Reset()
	if s.LiveCount(b) != 0 {
		t.Fatal("Reset did not expunge")
	}
}

func TestGlobalStoreConcurrency(t *testing.T) {
	cls := &Class{Name: "conc", States: 3, Limit: 128}
	s := NewStoreOpts(StoreOpts{Context: Global})
	s.Register(cls)
	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
	check := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 2, KeyMask: 1}}

	s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				s.UpdateStatePlan(NewSymbolPlan(cls, "check", 0, check), NewKey(Value(g*100+i%10)))
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	// 8 goroutines × 10 distinct keys + the (∗) parent.
	if n := s.LiveCount(cls); n != 81 {
		t.Fatalf("live=%d, want 81", n)
	}
}

// TestConcurrentCensusGrowth races keyed events against the activation of
// the instances they would project onto. An event keyed (k, v) plans its
// stripes from the mask census; a parent (k) activated by another goroutine
// after that plan lives in a stripe the event may not hold, while a third
// goroutine drives (k) in place under its stripe. A fourth kind sends the
// same keyed steps through UpdateBatch windows of 8, so ops after a run's
// head are planned under a held window while the census moves. Under -race
// no event may read a stripe's index it does not hold, nor drive (k)
// without its stripe.
func TestConcurrentCensusGrowth(t *testing.T) {
	cls := &Class{Name: "census", States: 4, Limit: 64}
	s := NewStoreOpts(StoreOpts{Context: Global, Shards: 16})
	s.Register(cls)
	enter := NewSymbolPlan(cls, "enter", 0, TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}})
	step := NewSymbolPlan(cls, "step", 0, TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 1, KeyMask: 1}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var window []BatchOp
			for i := 0; i < 2000; i++ {
				k := Value(i % 4)
				switch g % 4 {
				case 0:
					if i%4 == 3 {
						s.ResetClass(cls)
					} else {
						s.UpdateStatePlan(enter, NewKey(k))
					}
				case 1:
					s.UpdateStatePlan(step, NewKey(k))
				case 2:
					s.UpdateStatePlan(step, NewKey(k, Value(i%3)))
				default:
					key := NewKey(k)
					if i%2 == 1 {
						key = NewKey(k, Value(i%3))
					}
					window = append(window, BatchOp{Plan: step, Key: key})
					if len(window) == 8 {
						s.UpdateBatch(window)
						window = window[:0]
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.LiveCount(cls); n > cls.Limit {
		t.Fatalf("live %d over limit %d", n, cls.Limit)
	}
}

func TestClassString(t *testing.T) {
	cls := fig9Class()
	if got := cls.String(); !strings.Contains(got, "mac.c:42") {
		t.Errorf("String() = %q", got)
	}
	tr := Transition{From: 0, To: 1, Flags: TransInit | TransCleanup}
	if s := tr.String(); !strings.Contains(s, "init") || !strings.Contains(s, "cleanup") {
		t.Errorf("transition string = %q", s)
	}
}

func TestVerdictKindString(t *testing.T) {
	for k, want := range map[VerdictKind]string{
		VerdictAccept:        "accept",
		VerdictNoInstance:    "no-instance",
		VerdictBadTransition: "bad-transition",
		VerdictIncomplete:    "incomplete",
		VerdictKind(99):      "VerdictKind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestContextString(t *testing.T) {
	if PerThread.String() != "per-thread" || Global.String() != "global" {
		t.Error("context strings wrong")
	}
	if Context(9).String() != "Context(9)" {
		t.Error("unknown context string wrong")
	}
}

// TestPrintHandlerOutput: the userspace default handler (TESLA_DEBUG-style
// stderr traces) reports every lifecycle event.
func TestPrintHandlerOutput(t *testing.T) {
	var buf strings.Builder
	h := &PrintHandler{W: &buf}
	cls := fig9Class()
	s := NewStoreOpts(StoreOpts{Context: PerThread, Handler: h})
	s.Register(cls)
	enter, check, site, exit := fig9Sets()

	s.UpdateStatePlan(NewSymbolPlan(cls, symSyscallEnter, 0, enter), AnyKey)
	s.UpdateStatePlan(NewSymbolPlan(cls, symMACCheck, 0, check), NewKey(7))
	s.UpdateStatePlan(NewSymbolPlan(cls, symAssert, SymRequired, site), NewKey(7))
	s.UpdateStatePlan(NewSymbolPlan(cls, symAssert, SymRequired, site), NewKey(3))
	s.UpdateStatePlan(NewSymbolPlan(cls, symSyscallExit, 0, exit), AnyKey)

	// Overflow path.
	tiny := &Class{Name: "tiny", States: 3, Limit: 1}
	s.Register(tiny)
	s.UpdateStatePlan(NewSymbolPlan(tiny, "e", 0, TransitionSet{{From: 0, To: 1, Flags: TransInit}}), AnyKey)
	s.UpdateStatePlan(NewSymbolPlan(tiny, "c", 0, TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 2, KeyMask: 1}}), NewKey(1))

	out := buf.String()
	for _, want := range []string{
		"new instance (∗)",
		"clone (∗) -> (7)",
		"-> 1 on",                           // transition line
		"(7) accepted",                      // acceptance
		"no automaton instance matches (3)", // violation
		"overflow",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("print handler missing %q in:\n%s", want, out)
		}
	}
}
