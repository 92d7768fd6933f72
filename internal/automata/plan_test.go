package automata

import (
	"fmt"
	"strings"
	"testing"

	"tesla/internal/ir"
	"tesla/internal/spec"
)

// render prints hooks as "autos:begin", "autos:end" or "auto:symbol",
// where autos lists a bound hook's automata ("0+2").
func render(hooks []Hook) string {
	var out []string
	for _, h := range hooks {
		var autos []string
		for _, ai := range h.Autos {
			autos = append(autos, fmt.Sprint(ai))
		}
		switch h.Kind {
		case HookBoundBegin:
			out = append(out, strings.Join(autos, "+")+":begin")
		case HookBoundEnd:
			out = append(out, strings.Join(autos, "+")+":end")
		default:
			out = append(out, fmt.Sprintf("%d:%s", h.Auto, h.Sym.Name))
		}
	}
	return strings.Join(out, " ")
}

// TestPlanOrder pins the order hooks fire in at one point: at entry, bound
// begins, events, call-kind bound ends; at return, events, return-kind
// bound ends, return-kind bound begins — across automata, not per
// automaton.
func TestPlanOrder(t *testing.T) {
	autos := []*Automaton{
		compileSrc(t, "a0", `TESLA_ASSERT(perthread, call(f), call(f), eventually(call(f)))`, nil),
		compileSrc(t, "a1", `TESLA_ASSERT(perthread, returnfrom(f), returnfrom(f), previously(returnfrom(f)))`, nil),
		compileSrc(t, "a2", `TESLA_WITHIN(f, previously(call(f)))`, nil),
	}
	p := NewPlan(autos, map[string]bool{"f": true})
	if got, want := render(p.Entry("f", 0)), "0:begin 2:begin 0:call(f()) 2:call(f()) 0:end"; got != want {
		t.Errorf("Entry = %q, want %q", got, want)
	}
	if got, want := render(p.Return("f", 0)), "1:returnfrom(f()) 1:end 2:end 1:begin"; got != want {
		t.Errorf("Return = %q, want %q", got, want)
	}
	if hooks := p.BeforeCall("f", 0); len(hooks) != 0 {
		t.Errorf("defined f observed at call sites: %s", render(hooks))
	}
}

// TestPlanSidesAndArity: undefined functions are observed around call
// sites, modifiers force the side, events need enough arguments, and
// intrinsics are never observed.
func TestPlanSidesAndArity(t *testing.T) {
	autos := []*Automaton{
		compileSrc(t, "a", `TESLA_WITHIN(main, previously(check(ANY(int), 1) == 0))`, nil),
		compileSrc(t, "b", `TESLA_WITHIN(main, previously(caller(audit(1))))`, nil),
	}
	p := NewPlan(autos, map[string]bool{"main": true, "audit": true})
	if got := render(p.AfterCall("check", 2)); got != "0:check(ANY(int), 1) == 0" {
		t.Errorf("AfterCall(check, 2) = %q", got)
	}
	if got := render(p.AfterCall("check", 1)); got != "" {
		t.Errorf("AfterCall(check, 1) = %q, want none (too few arguments)", got)
	}
	if got := render(p.BeforeCall("audit", 1)); got != "1:caller(call(audit(1)))" {
		t.Errorf("BeforeCall(audit, 1) = %q (caller modifier on a defined function)", got)
	}
	if got := render(p.Entry("audit", 1)); got != "" {
		t.Errorf("Entry(audit) = %q, want none", got)
	}
	if !Intrinsic("print") || !Intrinsic("__tesla_update") || Intrinsic("check") {
		t.Error("Intrinsic misclassifies")
	}
}

// compileAssertion compiles a builder-made assertion.
func compileAssertion(t *testing.T, a *spec.Assertion) *Automaton {
	t.Helper()
	auto, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	return auto
}

// TestPlanSharedSlot: two automata sharing a bound slot, interleaved with
// a third on another bound beginning at the same point, give one bound
// hook per slot, where the slot's first automaton's hook would be. The
// whole tables hold every side; the compiled-code views split them.
func TestPlanSharedSlot(t *testing.T) {
	autos := []*Automaton{
		compileSrc(t, "a0", `TESLA_WITHIN(f, previously(call(g)))`, nil),
		compileSrc(t, "a1", `TESLA_ASSERT(perthread, call(f), returnfrom(h), previously(call(g)))`, nil),
		compileSrc(t, "a2", `TESLA_WITHIN(f, eventually(returnfrom(g)))`, nil),
	}
	p := NewPlan(autos, map[string]bool{"f": true, "h": true})
	if p.Slots() != 2 || p.Slot(0) != 0 || p.Slot(1) != 1 || p.Slot(2) != 0 {
		t.Fatalf("slots: %d slots, autos in %d %d %d", p.Slots(), p.Slot(0), p.Slot(1), p.Slot(2))
	}
	for _, tc := range []struct {
		name      string
		got, want string
	}{
		{"Hooks(AtCall, f)", render(p.Hooks(AtCall, "f")), "0+2:begin 1:begin"},
		{"Entry(f)", render(p.Entry("f", 0)), "0+2:begin 1:begin"},
		{"Hooks(AtReturn, f)", render(p.Hooks(AtReturn, "f")), "0+2:end"},
		{"Hooks(AtReturn, h)", render(p.Hooks(AtReturn, "h")), "1:end"},
		{"Hooks(AtCall, g)", render(p.Hooks(AtCall, "g")), "0:call(g()) 1:call(g())"},
		{"BeforeCall(g)", render(p.BeforeCall("g", 0)), "0:call(g()) 1:call(g())"},
		{"Entry(g)", render(p.Entry("g", 0)), ""},
		{"Hooks(AtReturn, g)", render(p.Hooks(AtReturn, "g")), "2:returnfrom(g())"},
		{"AfterCall(g)", render(p.AfterCall("g", 0)), "2:returnfrom(g())"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %q, want %q", tc.name, tc.got, tc.want)
		}
	}
	for _, h := range p.Hooks(AtCall, "g") {
		if h.Side != spec.SideCaller {
			t.Errorf("undefined g's event %s observed on side %d", h.Sym.Name, h.Side)
		}
	}
}

// TestPlanRuntimeView covers the points only the monitor reads whole:
// message sends and their returns by selector, field stores by operator
// (each mapped to its IR assignment kind), and each automaton's
// incallstack site branches.
func TestPlanRuntimeView(t *testing.T) {
	msg := compileAssertion(t, spec.Within("msg", "loop", spec.Previously(
		spec.Msg(spec.Any("id"), "push"),
		spec.MsgReturn(spec.Any("id"), "pop").ReturnsInt(0))))
	fld := compileAssertion(t, spec.Within("fld", "loop", spec.Eventually(
		spec.FieldAssign("sm", "n", spec.Var("s"), spec.Int(1)),
		spec.FieldAddAssign("sm", "n", spec.Var("s"), spec.Int(2)),
		spec.FieldIncr("sm", "n", spec.Var("s")))))
	ics := compileSrc(t, "ics", `TESLA_SYSCALL(incallstack(a) || incallstack(b) || previously(c() == 0))`, nil)
	p := NewPlan([]*Automaton{msg, fld, ics}, nil)

	if got, want := render(p.Hooks(AtSend, "push")), "0:[ANY(id) push]"; got != want {
		t.Errorf("Hooks(AtSend, push) = %q, want %q", got, want)
	}
	if got, want := render(p.Hooks(AtSendReturn, "pop")), "0:[ANY(id) pop] == 0"; got != want {
		t.Errorf("Hooks(AtSendReturn, pop) = %q, want %q", got, want)
	}
	if hooks := p.Hooks(AtCall, "push"); len(hooks) != 0 {
		t.Errorf("a message send is a function call: %s", render(hooks))
	}
	if hooks := p.Hooks(AtSend, "pop"); len(hooks) != 0 {
		t.Errorf("a message return fires at the send: %s", render(hooks))
	}

	for _, tc := range []struct {
		op   spec.AssignOp
		kind ir.AssignKind
	}{
		{spec.OpAssign, ir.AssignSet},
		{spec.OpAddAssign, ir.AssignAdd},
		{spec.OpIncr, ir.AssignIncr},
	} {
		hooks := p.Assign("sm", "n", tc.op)
		if len(hooks) != 1 || hooks[0].Sym.AssignOp != tc.op || hooks[0].Auto != 1 {
			t.Errorf("Assign(sm.n %s) = %q", tc.op, render(hooks))
		}
		if got, want := render(p.FieldStore("sm", "n", tc.kind)), render(hooks); got != want {
			t.Errorf("FieldStore(sm.n, %d) = %q, Assign(sm.n %s) = %q", tc.kind, got, tc.op, want)
		}
	}
	if hooks := p.Assign("sm", "m", spec.OpAssign); len(hooks) != 0 {
		t.Errorf("Assign(sm.m) = %q, want none", render(hooks))
	}

	var branches []string
	for _, sym := range p.InCallStack(2) {
		branches = append(branches, sym.Fn)
		if sym != ics.Symbols[sym.ID] || sym.Kind != KindInCallStack {
			t.Errorf("branch %s is not automaton 2's incallstack symbol", sym.Name)
		}
	}
	if got := strings.Join(branches, " "); got != "a b" {
		t.Errorf("InCallStack(2) = %q, want \"a b\"", got)
	}
	if len(p.InCallStack(0)) != 0 || len(p.InCallStack(1)) != 0 {
		t.Error("incallstack branches on automata without them")
	}
}
