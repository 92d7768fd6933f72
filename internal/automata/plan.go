package automata

import (
	"strings"

	"tesla/internal/ir"
	"tesla/internal/spec"
)

// HookKind says what one hook does.
type HookKind uint8

const (
	// HookEvent delivers Hook.Sym (through its event translator).
	HookEvent HookKind = iota
	// HookBoundBegin opens the automaton's bound («init»).
	HookBoundBegin
	// HookBoundEnd closes the automaton's bound («cleanup»).
	HookBoundEnd
)

// Hook is one automaton event observed at one instrumentation point.
type Hook struct {
	Auto int // index into the automata slice the plan was built from
	Kind HookKind
	Sym  *Symbol // HookEvent only
	Slot int     // bound slot (BoundSlots); bound hooks only
}

// Plan is the single definition of which automaton events fire where in a
// program (§4.2) and in what order. The instrumenter emits exactly these
// hooks, and the static checker abstracts the program over exactly these
// points, so elision is sound by construction.
//
// A function event is observed in the callee (entry block, before each
// return) when the function is defined in the program, and around its call
// sites otherwise, unless a caller/callee modifier forces the side. An
// event matches only where at least as many arguments are available as it
// has patterns. Calls to intrinsics are never observed.
//
// Hooks at one point run in the monitor's dispatch order (monitor.Thread
// Call and Return): at entry, bound begins, then events, then call-kind
// bound ends; at return, events, then return-kind bound ends, then
// return-kind bound begins. Within each group, hooks follow automaton order
// and then symbol order.
type Plan struct {
	entry, ret    map[string][]Hook // callee side, by function
	before, after map[string][]Hook // caller side, by callee
	field         map[fieldKey][]Hook
}

type fieldKey struct {
	structName, field string
	op                ir.AssignKind
}

// NewPlan builds the hook plan for autos (indices refer to this slice)
// over a program whose defined functions are defined.
func NewPlan(autos []*Automaton, defined map[string]bool) *Plan {
	p := &Plan{
		entry:  map[string][]Hook{},
		ret:    map[string][]Hook{},
		before: map[string][]Hook{},
		after:  map[string][]Hook{},
		field:  map[fieldKey][]Hook{},
	}
	slots := BoundSlots(autos)
	bounds := func(kind HookKind, at spec.StaticKind, into map[string][]Hook) {
		for ai, a := range autos {
			ev := a.Spec.Bound.Begin
			if kind == HookBoundEnd {
				ev = a.Spec.Bound.End
			}
			if ev.Kind == at {
				into[ev.Fn] = append(into[ev.Fn], Hook{Auto: ai, Kind: kind, Slot: slots[a.Spec.Bound.String()]})
			}
		}
	}

	bounds(HookBoundBegin, spec.StaticCall, p.entry)
	for ai, a := range autos {
		for _, sym := range a.Symbols {
			h := Hook{Auto: ai, Kind: HookEvent, Sym: sym}
			if sym.Kind == KindFieldAssign {
				k := fieldKey{sym.Struct, sym.Field, assignKind(sym.AssignOp)}
				p.field[k] = append(p.field[k], h)
				continue
			}
			if sym.ObjC || (sym.Kind != KindFuncEntry && sym.Kind != KindFuncExit) {
				continue
			}
			callee := sym.Side == spec.SideCallee || (sym.Side != spec.SideCaller && defined[sym.Fn])
			var into map[string][]Hook
			switch entry := sym.Kind == KindFuncEntry; {
			case callee && entry:
				into = p.entry
			case callee:
				into = p.ret
			case entry:
				into = p.before
			default:
				into = p.after
			}
			into[sym.Fn] = append(into[sym.Fn], h)
		}
	}
	bounds(HookBoundEnd, spec.StaticCall, p.entry)
	bounds(HookBoundEnd, spec.StaticReturn, p.ret)
	bounds(HookBoundBegin, spec.StaticReturn, p.ret)
	return p
}

// Entry returns the hooks at the top of fn's entry block.
func (p *Plan) Entry(fn string, nparams int) []Hook { return at(p.entry, fn, nparams) }

// Return returns the hooks before each of fn's returns.
func (p *Plan) Return(fn string, nparams int) []Hook { return at(p.ret, fn, nparams) }

// BeforeCall returns the hooks immediately before a call to callee.
func (p *Plan) BeforeCall(callee string, nargs int) []Hook { return at(p.before, callee, nargs) }

// AfterCall returns the hooks immediately after a call to callee.
func (p *Plan) AfterCall(callee string, nargs int) []Hook { return at(p.after, callee, nargs) }

// FieldStore returns the hooks after a store to structName.field with
// assignment operator op.
func (p *Plan) FieldStore(structName, field string, op ir.AssignKind) []Hook {
	return p.field[fieldKey{structName, field, op}]
}

// Intrinsic reports whether fn is provided by the VM rather than the
// program — print, the __tesla_* hooks and generated translators. Calls to
// it are never instrumentation points.
func Intrinsic(fn string) bool {
	return fn == "print" || strings.HasPrefix(fn, "__tesla")
}

// at looks up fn's hooks and drops the events with more argument patterns
// than the n arguments available there.
func at(m map[string][]Hook, fn string, n int) []Hook {
	if Intrinsic(fn) {
		return nil
	}
	var out []Hook
	for _, h := range m[fn] {
		if h.Kind != HookEvent || len(h.Sym.Args) <= n {
			out = append(out, h)
		}
	}
	return out
}

// assignKind maps a field-assignment event's operator to the IR store it
// observes.
func assignKind(op spec.AssignOp) ir.AssignKind {
	switch op {
	case spec.OpAddAssign:
		return ir.AssignAdd
	case spec.OpIncr:
		return ir.AssignIncr
	default:
		return ir.AssignSet
	}
}

// BoundSlots assigns a dense slot index to each distinct bound (begin/end
// event pair) across the automata, in first-appearance order. The monitor
// and the hook plan both number bounds with it, so compiled-in hook slots
// agree with the runtime.
func BoundSlots(autos []*Automaton) map[string]int {
	slots := map[string]int{}
	for _, a := range autos {
		k := a.Spec.Bound.String()
		if _, ok := slots[k]; !ok {
			slots[k] = len(slots)
		}
	}
	return slots
}
