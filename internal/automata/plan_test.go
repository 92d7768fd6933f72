package automata

import (
	"fmt"
	"strings"
	"testing"
)

// render prints hooks as "auto:begin", "auto:end" or "auto:symbol".
func render(hooks []Hook) string {
	var out []string
	for _, h := range hooks {
		switch h.Kind {
		case HookBoundBegin:
			out = append(out, fmt.Sprintf("%d:begin", h.Auto))
		case HookBoundEnd:
			out = append(out, fmt.Sprintf("%d:end", h.Auto))
		default:
			out = append(out, fmt.Sprintf("%d:%s", h.Auto, h.Sym.Name))
		}
	}
	return strings.Join(out, " ")
}

// TestPlanOrder pins the monitor's dispatch order: at entry, bound begins,
// events, call-kind bound ends; at return, events, return-kind bound ends,
// return-kind bound begins — across automata, not per automaton.
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
