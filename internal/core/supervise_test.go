package core

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// Supervision unit tests. Every behavioural test runs against both store
// layouts — "reference" is the per-thread slot array, "sharded" the global
// store at 4 stripes: the supervision layer must be layout-independent.

func bothStores(t *testing.T, f func(t *testing.T, mk func(o StoreOpts) *Store)) {
	t.Helper()
	for _, tc := range []struct {
		name string
		l    layout
	}{{"reference", layout{PerThread, 0}}, {"sharded", layout{Global, 4}}} {
		t.Run(tc.name, func(t *testing.T) {
			f(t, tc.l.store)
		})
	}
}

func initTS() TransitionSet {
	return TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}}
}

// TestFailureActions covers the §4.4.2 spectrum: a FailStop store returns
// the violation, a store left at the zero value reports it and continues.
func TestFailureActions(t *testing.T) {
	site := TransitionSet{{From: 1, To: 2, KeyMask: 1}}
	violate := func(s *Store, cls *Class) error {
		s.UpdateState(cls, "enter", 0, NewKey(1), initTS())
		// A required event with bindings no instance has: VerdictNoInstance.
		return s.UpdateState(cls, "site", SymRequired, NewKey(2), site)
	}

	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		t.Run("default-failfast", func(t *testing.T) {
			cls := &Class{Name: "d", States: 3, Limit: 4}
			s := mk(StoreOpts{Failure: FailStop})
			s.Register(cls)
			if err := violate(s, cls); err == nil {
				t.Fatal("FailStop store default: want violation error")
			}
		})
		t.Run("default-report", func(t *testing.T) {
			cls := &Class{Name: "d", States: 3, Limit: 4}
			h := NewCountingHandler()
			s := mk(StoreOpts{Handler: h})
			s.Register(cls)
			if err := violate(s, cls); err != nil {
				t.Fatalf("unset store default: unexpected error %v", err)
			}
			if len(h.Violations()) != 1 {
				t.Fatal("handler missed the violation")
			}
		})
		t.Run("store-default-action", func(t *testing.T) {
			cls := &Class{Name: "sd", States: 3, Limit: 4}
			s := mk(StoreOpts{Failure: FailStop})
			s.Register(cls)
			if err := violate(s, cls); err == nil {
				t.Fatal("store-wide FailStop: want violation error")
			}
		})
	})
}

// TestEvictOldest: the oldest live instance is sacrificed, monitoring stays
// live for new bindings, and the eviction is notified and accounted.
func TestEvictOldest(t *testing.T) {
	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		cls := &Class{Name: "ev", States: 3, Limit: 2}
		h := &noteHandler{}
		s := mk(StoreOpts{Handler: h, Overflow: EvictOldest})
		s.Register(cls)

		for _, v := range []Value{1, 2, 3} {
			if err := s.UpdateState(cls, "enter", 0, NewKey(v), initTS()); err != nil {
				t.Fatalf("enter %d: %v", v, err)
			}
		}
		if n := s.LiveCount(cls); n != 2 {
			t.Fatalf("live = %d, want 2 (limit held)", n)
		}
		keys := map[Value]bool{}
		for _, in := range s.Instances(cls) {
			keys[in.Key.Data[0]] = true
		}
		if keys[1] || !keys[2] || !keys[3] {
			t.Fatalf("wrong survivor set: %v (oldest should be gone)", keys)
		}
		hh := s.Health(cls)
		if hh.Overflows != 1 || hh.Evictions != 1 {
			t.Fatalf("health = %+v, want 1 overflow / 1 eviction", hh)
		}
		joined := strings.Join(h.sorted(), "\n")
		if !strings.Contains(joined, "evict|ev|(1)") {
			t.Fatalf("missing evict notification:\n%s", joined)
		}
	})
}

// TestDropNewPreserved: the default policy still reports and drops, exactly
// the seed behaviour.
func TestDropNewPreserved(t *testing.T) {
	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		cls := &Class{Name: "dn", States: 3, Limit: 2}
		s := mk(StoreOpts{})
		s.Register(cls)
		for _, v := range []Value{1, 2, 3} {
			s.UpdateState(cls, "enter", 0, NewKey(v), initTS())
		}
		if n := s.LiveCount(cls); n != 2 {
			t.Fatalf("live = %d", n)
		}
		keys := map[Value]bool{}
		for _, in := range s.Instances(cls) {
			keys[in.Key.Data[0]] = true
		}
		if !keys[1] || !keys[2] || keys[3] {
			t.Fatalf("DropNew changed survivors: %v", keys)
		}
		hh := s.Health(cls)
		if hh.Overflows != 1 || hh.Evictions != 0 {
			t.Fatalf("health = %+v", hh)
		}
	})
}

// TestQuarantineLifecycle: K consecutive overflows quarantine the class,
// events are suppressed and counted exactly, and the event-count re-arm
// processes the re-arming event itself.
func TestQuarantineLifecycle(t *testing.T) {
	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		cls := &Class{Name: "q", States: 3, Limit: 1}
		h := &noteHandler{}
		s := mk(StoreOpts{Handler: h, Overflow: QuarantineClass, QuarantineAfter: 2, RearmEvents: 3})
		s.Register(cls)

		s.UpdateState(cls, "enter", 0, NewKey(1), initTS()) // fills the block
		s.UpdateState(cls, "enter", 0, NewKey(2), initTS()) // overflow, streak 1
		if s.Quarantined(cls) {
			t.Fatal("quarantined too early")
		}
		s.UpdateState(cls, "enter", 0, NewKey(3), initTS()) // overflow, streak 2 → quarantine
		if !s.Quarantined(cls) {
			t.Fatal("not quarantined after threshold")
		}
		if n := s.LiveCount(cls); n != 0 {
			t.Fatalf("quarantined class reports live = %d", n)
		}
		if in := s.Instances(cls); in != nil {
			t.Fatalf("quarantined class reports instances %v", in)
		}

		// Three suppressed events, then the fourth re-arms and processes.
		for i := 0; i < 3; i++ {
			s.UpdateState(cls, "enter", 0, NewKey(9), initTS())
			if !s.Quarantined(cls) {
				t.Fatalf("re-armed after %d events, want 3 suppressed first", i+1)
			}
		}
		s.UpdateState(cls, "enter", 0, NewKey(9), initTS())
		if s.Quarantined(cls) {
			t.Fatal("did not re-arm")
		}
		if n := s.LiveCount(cls); n != 1 {
			t.Fatalf("re-arming event was not processed: live = %d", n)
		}

		hh := s.Health(cls)
		if hh.Suppressed != 3 {
			t.Fatalf("Suppressed = %d, want exactly 3", hh.Suppressed)
		}
		if hh.Quarantines != 1 || hh.Overflows != 2 {
			t.Fatalf("health = %+v", hh)
		}
		joined := strings.Join(h.sorted(), "\n")
		if !strings.Contains(joined, "quarantine|q|true") || !strings.Contains(joined, "quarantine|q|false") {
			t.Fatalf("missing quarantine notifications:\n%s", joined)
		}
	})
}

// TestResetLiftsQuarantine: Reset and ResetClass return a quarantined class
// to service without a Quarantine(off) notification.
func TestResetLiftsQuarantine(t *testing.T) {
	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		cls := &Class{Name: "rq", States: 3, Limit: 1}
		s := mk(StoreOpts{Overflow: QuarantineClass, QuarantineAfter: 1})
		s.Register(cls)
		s.UpdateState(cls, "enter", 0, NewKey(1), initTS())
		s.UpdateState(cls, "enter", 0, NewKey(2), initTS())
		if !s.Quarantined(cls) {
			t.Fatal("not quarantined")
		}
		s.ResetClass(cls)
		if s.Quarantined(cls) {
			t.Fatal("ResetClass left quarantine in place")
		}
		s.UpdateState(cls, "enter", 0, NewKey(5), initTS())
		if s.LiveCount(cls) != 1 {
			t.Fatal("class unusable after ResetClass")
		}
	})
}

// panicHandler panics on selected notifications.
type panicHandler struct {
	NopHandler
	onFail  bool
	onTrans bool
}

func (h *panicHandler) Fail(v *Violation) {
	if h.onFail {
		panic("handler bug: fail")
	}
}

func (h *panicHandler) Transition(cls *Class, inst *Instance, from, to uint32, symbol string) {
	if h.onTrans {
		panic("handler bug: transition")
	}
}

// TestHandlerPanicIsolated: a panicking handler does not propagate into
// UpdateState, panics are counted per class, and past the limit the handler
// is quarantined and further notifications dropped.
func TestHandlerPanicIsolated(t *testing.T) {
	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		cls := &Class{Name: "ph", States: 3, Limit: 8}
		s := mk(StoreOpts{Handler: &panicHandler{onTrans: true}, HandlerPanicLimit: 3})
		s.Register(cls)

		for i := 0; i < 5; i++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("handler panic escaped UpdateState: %v", r)
					}
				}()
				s.UpdateState(cls, "enter", 0, NewKey(Value(i)), initTS())
			}()
		}
		if got := s.HandlerPanics(); got != 3 {
			t.Fatalf("HandlerPanics = %d, want 3 (limit stops further deliveries)", got)
		}
		if !s.HandlerQuarantined() {
			t.Fatal("handler not quarantined at limit")
		}
		if s.NotesDropped() == 0 {
			t.Fatal("dropped notifications not accounted")
		}
		if hh := s.Health(cls); hh.HandlerPanics != 3 {
			t.Fatalf("per-class HandlerPanics = %d", hh.HandlerPanics)
		}
		// The monitor itself is unaffected: instances kept being created.
		if n := s.LiveCount(cls); n != 5 {
			t.Fatalf("live = %d, want 5", n)
		}
	})
}

// reentrantHandler calls back into the store it observes — the regression
// case for notifications dispatched under the store lock (deadlock before
// the supervision layer).
type reentrantHandler struct {
	NopHandler
	s   *Store
	cls *Class
	mu  sync.Mutex
	n   int
}

func (h *reentrantHandler) Transition(cls *Class, inst *Instance, from, to uint32, symbol string) {
	h.mu.Lock()
	h.n++
	reenter := h.n == 1 // only the first notification re-enters, no recursion
	h.mu.Unlock()
	_ = h.s.LiveCount(h.cls)
	_ = h.s.Instances(h.cls)
	if reenter {
		h.s.UpdateState(h.cls, "enter", 0, NewKey(77), initTS())
	}
}

// TestReentrantHandlerNoDeadlock: a handler that reads from and updates the
// same store completes (fails by test timeout if dispatch ever moves back
// under the lock).
func TestReentrantHandlerNoDeadlock(t *testing.T) {
	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		cls := &Class{Name: "re", States: 3, Limit: 8}
		h := &reentrantHandler{cls: cls}
		s := mk(StoreOpts{Handler: h})
		h.s = s
		s.Register(cls)

		done := make(chan struct{})
		go func() {
			s.UpdateState(cls, "enter", 0, NewKey(1), initTS())
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("re-entrant handler deadlocked the store")
		}
		// Both the original and the re-entrant instance exist.
		if n := s.LiveCount(cls); n != 2 {
			t.Fatalf("live = %d, want 2", n)
		}
	})
}

// TestHealthReport: the per-store report covers every class in registration
// order with live counts and quarantine flags. Both classes run under the
// quarantine policy; only b overflows, so only b is quarantined.
func TestHealthReport(t *testing.T) {
	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		a := &Class{Name: "a", States: 3, Limit: 2}
		b := &Class{Name: "b", States: 3, Limit: 1}
		s := mk(StoreOpts{Overflow: QuarantineClass, QuarantineAfter: 1})
		s.Register(a)
		s.Register(b)
		s.UpdateState(a, "enter", 0, NewKey(1), initTS())
		s.UpdateState(b, "enter", 0, NewKey(1), initTS())
		s.UpdateState(b, "enter", 0, NewKey(2), initTS()) // overflow → quarantine

		rep := s.HealthReport()
		if len(rep) != 2 || rep[0].Class != "a" || rep[1].Class != "b" {
			t.Fatalf("report order: %+v", rep)
		}
		if rep[0].Quarantined || rep[0].Live != 1 || rep[0].Degraded() {
			t.Fatalf("class a: %+v", rep[0])
		}
		if !rep[1].Quarantined || rep[1].Live != 0 || !rep[1].Degraded() {
			t.Fatalf("class b: %+v", rep[1])
		}
		if rep[1].Overflows != 1 || rep[1].Quarantines != 1 {
			t.Fatalf("class b counters: %+v", rep[1])
		}
	})
}

// TestPolicyStringers pins the flag-facing names: every spelling parses
// back to its value and prints as itself, and the spellings of the removed
// per-class modes are rejected.
func TestPolicyStringers(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want FailureAction
	}{{"report", FailReport}, {"stop", FailStop}} {
		got, err := ParseFailureAction(tc.s)
		if err != nil || got != tc.want || got.String() != tc.s {
			t.Errorf("ParseFailureAction(%q) = %v, %v; want %v", tc.s, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		s    string
		want OverflowPolicy
	}{{"drop-new", DropNew}, {"evict-oldest", EvictOldest}, {"quarantine", QuarantineClass}} {
		got, err := ParseOverflowPolicy(tc.s)
		if err != nil || got != tc.want || got.String() != tc.s {
			t.Errorf("ParseOverflowPolicy(%q) = %v, %v; want %v", tc.s, got, err, tc.want)
		}
	}
	if FailureAction(0) != FailReport || OverflowPolicy(0) != DropNew {
		t.Error("zero values must be report and drop-new")
	}
	for _, s := range []string{"default", "callback", ""} {
		if _, err := ParseFailureAction(s); err == nil {
			t.Errorf("ParseFailureAction(%q) accepted", s)
		}
		if _, err := ParseOverflowPolicy(s); err == nil {
			t.Errorf("ParseOverflowPolicy(%q) accepted", s)
		}
	}
}

// TestEvictSparesParent: EvictOldest's victim is the oldest instance bound
// like the newcomer, not the class-wide oldest. A plain minimum-birth scan
// evicts the unkeyed parent «init» instance first (it is the oldest by
// construction), silently killing the clone source for every later binding
// in the bound — found by driving `tesla-run -overflow evict-oldest`
// against a program that checks more keys than the block holds.
func TestEvictSparesParent(t *testing.T) {
	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		cls := &Class{Name: "par", States: 3, Limit: 3}
		s := mk(StoreOpts{Overflow: EvictOldest})
		s.Register(cls)
		enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
		check := TransitionSet{
			{From: 1, To: 2, KeyMask: 1},
			{From: 2, To: 2, KeyMask: 1},
		}

		if err := s.UpdateState(cls, "enter", 0, AnyKey, enter); err != nil {
			t.Fatal(err)
		}
		// Three slots: the parent plus two clones fill the block; clones
		// (3) and (4) must each evict the oldest *clone*, never the parent.
		for v := Value(1); v <= 4; v++ {
			if err := s.UpdateState(cls, "check", 0, NewKey(v), check); err != nil {
				t.Fatalf("check %d: %v", v, err)
			}
		}
		parent := false
		keys := map[Value]bool{}
		for _, in := range s.Instances(cls) {
			if in.Key == AnyKey {
				parent = true
			} else {
				keys[in.Key.Data[0]] = true
			}
		}
		if !parent {
			t.Fatalf("parent (∗) evicted; survivors %v — clone source lost", keys)
		}
		if keys[1] || keys[2] || !keys[3] || !keys[4] {
			t.Fatalf("wrong clone survivor set: %v, want {3,4}", keys)
		}
		if hh := s.Health(cls); hh.Overflows != 2 || hh.Evictions != 2 {
			t.Fatalf("health = %+v, want 2 overflows / 2 evictions", hh)
		}
	})
}
