package dtrace

import (
	"reflect"
	"testing"

	"tesla/internal/core"
)

func TestAggregation(t *testing.T) {
	a := NewAggregation("test")
	a.Add("x", 1)
	a.Add("y", 5)
	a.Add("x", 2)
	if a.Count("x") != 3 || a.Count("y") != 5 || a.Count("z") != 0 {
		t.Fatal("counts wrong")
	}
	if got := a.Keys(); !reflect.DeepEqual(got, []string{"y", "x"}) {
		t.Fatalf("keys = %v", got)
	}
}

func TestHandlerAggregates(t *testing.T) {
	stack := "amd64_syscall>sopoll"
	h := NewHandler(func() string { return stack })
	cls := &core.Class{Name: "a", States: 3, Limit: 4}
	s := core.NewStoreOpts(core.StoreOpts{Context: core.PerThread, Handler: h})
	s.Register(cls)

	enter := core.TransitionSet{{From: 0, To: 1, Flags: core.TransInit}}
	exit := core.TransitionSet{{From: 1, To: 2, Flags: core.TransCleanup}}
	s.UpdateStatePlan(core.NewSymbolPlan(cls, "enter", 0, enter), core.AnyKey)
	s.UpdateStatePlan(core.NewSymbolPlan(cls, "exit", 0, exit), core.AnyKey)
	// A required event with a live instance that cannot accept it.
	s.UpdateStatePlan(core.NewSymbolPlan(cls, "enter", 0, enter), core.AnyKey)
	s.UpdateStatePlan(core.NewSymbolPlan(cls, "site", core.SymRequired, core.TransitionSet{{From: 9, To: 9}}), core.AnyKey.Set(0, 1))

	if h.Transitions.Count("a @ 0->1 @ enter @ "+stack) != 2 {
		t.Fatalf("transition agg: %v", h.Transitions.Keys())
	}
	if h.Accepts.Count("a @ "+stack) != 1 {
		t.Fatal("accept agg")
	}
	if h.Failures.Count("a @ no-instance @ "+stack) != 1 {
		t.Fatalf("failure agg: %v", h.Failures.Keys())
	}
}

func TestHandlerWithoutStack(t *testing.T) {
	h := NewHandler(nil)
	cls := &core.Class{Name: "b", States: 2, Limit: 2}
	s := core.NewStoreOpts(core.StoreOpts{Context: core.PerThread, Handler: h})
	s.Register(cls)
	s.UpdateStatePlan(core.NewSymbolPlan(cls, "e", 0, core.TransitionSet{{From: 0, To: 1, Flags: core.TransInit}}), core.AnyKey)
	if h.Transitions.Count("b @ 0->1 @ e") != 1 {
		t.Fatalf("keys = %v", h.Transitions.Keys())
	}
}
