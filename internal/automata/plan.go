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
	// HookBoundBegin opens a bound slot («init»).
	HookBoundBegin
	// HookBoundEnd closes a bound slot («cleanup»).
	HookBoundEnd
)

// Hook is one automaton event observed at one program point.
type Hook struct {
	// Auto indexes the automata slice the plan was built from: an event
	// hook's automaton, or a bound hook's slot's first automaton.
	Auto int
	Kind HookKind
	Sym  *Symbol // HookEvent only
	// Side is where compiled code observes an event hook at a function
	// point: spec.SideCallee (the entry block, or before each return) or
	// spec.SideCaller (around each call site). Bound hooks are callee-side.
	Side spec.InstrSide
	// Slot and Autos: a bound hook's slot, and every automaton sharing
	// it, in order. One bound hook stands for the whole slot.
	Slot  int
	Autos []int
}

// Point is a kind of named program point that hooks fire at.
type Point uint8

const (
	// AtCall is entry into a function, by name.
	AtCall Point = iota
	// AtReturn is return from a function.
	AtReturn
	// AtSend is an Objective-C message send, by selector.
	AtSend
	// AtSendReturn is the return of a message send.
	AtSendReturn
	numPoints
)

// Plan is the single definition of which automaton events fire where in a
// program (§4.2) and in what order. The instrumenter emits exactly these
// hooks, the static checker abstracts the program over exactly these
// points, and the monitor dispatches name-driven events through them, so
// elision is sound and compiled and name-driven runs agree by
// construction.
//
// Each function point holds one table, in order: at a call, bound begins,
// then events, then call-kind bound ends; at a return, events, then
// return-kind bound ends, then return-kind bound begins. Within each
// group, hooks follow automaton order and then symbol order; a bound slot
// shared by several automata has one hook, where its first automaton's
// would be. The monitor reads whole tables, firing each bound slot once.
//
// Compiled code splits each table by Side. A function event is observed in
// the callee (entry block, before each return) when the function is
// defined in the program, and around its call sites otherwise, unless a
// caller/callee modifier forces the side. An event matches only where at
// least as many arguments are available as it has patterns. Calls to
// intrinsics are never observed. Message sends are observed by the
// monitor only.
type Plan struct {
	points [numPoints]map[string][]Hook
	field  map[fieldKey][]Hook
	stack  [][]*Symbol // per automaton: its incallstack symbols
	slot   []int       // per automaton: its bound slot
	slots  [][]int     // per bound slot: the automata sharing it
}

type fieldKey struct {
	structName, field string
	op                ir.AssignKind
}

// NewPlan builds the hook plan for autos (indices refer to this slice)
// over a program whose defined functions are defined; a nil set leaves
// every unmodified function event on the caller side.
func NewPlan(autos []*Automaton, defined map[string]bool) *Plan {
	p := &Plan{
		field: map[fieldKey][]Hook{},
		stack: make([][]*Symbol, len(autos)),
		slot:  make([]int, len(autos)),
	}
	for i := range p.points {
		p.points[i] = map[string][]Hook{}
	}
	// Number each distinct bound (begin/end pair) densely, in
	// first-appearance order.
	slotOf := map[string]int{}
	for ai, a := range autos {
		k := a.Spec.Bound.String()
		s, ok := slotOf[k]
		if !ok {
			s = len(p.slots)
			slotOf[k] = s
			p.slots = append(p.slots, nil)
		}
		p.slot[ai] = s
		p.slots[s] = append(p.slots[s], ai)
	}
	bounds := func(kind HookKind, at spec.StaticKind, pt Point) {
		for s, shared := range p.slots {
			ev := autos[shared[0]].Spec.Bound.Begin
			if kind == HookBoundEnd {
				ev = autos[shared[0]].Spec.Bound.End
			}
			if ev.Kind == at {
				p.points[pt][ev.Fn] = append(p.points[pt][ev.Fn],
					Hook{Auto: shared[0], Kind: kind, Side: spec.SideCallee, Slot: s, Autos: shared})
			}
		}
	}

	bounds(HookBoundBegin, spec.StaticCall, AtCall)
	for ai, a := range autos {
		for _, sym := range a.Symbols {
			h := Hook{Auto: ai, Kind: HookEvent, Sym: sym, Side: spec.SideCallee}
			switch sym.Kind {
			case KindFieldAssign:
				k := fieldKey{sym.Struct, sym.Field, assignKind(sym.AssignOp)}
				p.field[k] = append(p.field[k], h)
			case KindInCallStack:
				p.stack[ai] = append(p.stack[ai], sym)
			case KindFuncEntry, KindFuncExit:
				pt := AtCall
				if sym.Kind == KindFuncExit {
					pt = AtReturn
				}
				if sym.ObjC {
					pt += AtSend // AtSend, AtSendReturn follow AtCall, AtReturn
				} else if sym.Side == spec.SideCaller || (sym.Side != spec.SideCallee && !defined[sym.Fn]) {
					h.Side = spec.SideCaller
				}
				p.points[pt][sym.Fn] = append(p.points[pt][sym.Fn], h)
			}
		}
	}
	bounds(HookBoundEnd, spec.StaticCall, AtCall)
	bounds(HookBoundEnd, spec.StaticReturn, AtReturn)
	bounds(HookBoundBegin, spec.StaticReturn, AtReturn)
	return p
}

// Hooks returns every hook at the named point, in order, whatever side
// compiled code observes it on. The monitor's name-driven entry points
// run these; matching an event's argument patterns is theirs to do.
func (p *Plan) Hooks(at Point, name string) []Hook { return p.points[at][name] }

// Assign returns the hooks after a store to structName.field with
// assignment operator op: FieldStore at op's IR assignment kind.
func (p *Plan) Assign(structName, field string, op spec.AssignOp) []Hook {
	return p.FieldStore(structName, field, assignKind(op))
}

// InCallStack returns automaton auto's incallstack symbols, in symbol
// order: the branches its assertion site fires first, for the functions
// on the call stack.
func (p *Plan) InCallStack(auto int) []*Symbol { return p.stack[auto] }

// Slot returns automaton auto's bound slot: a dense number shared by
// every automaton with the same bound (begin/end event pair), so
// compiled-in bound hooks and the monitor agree.
func (p *Plan) Slot(auto int) int { return p.slot[auto] }

// Slots returns the number of distinct bound slots.
func (p *Plan) Slots() int { return len(p.slots) }

// Entry returns the hooks at the top of fn's entry block.
func (p *Plan) Entry(fn string, nparams int) []Hook {
	return p.side(AtCall, fn, spec.SideCallee, nparams)
}

// Return returns the hooks before each of fn's returns.
func (p *Plan) Return(fn string, nparams int) []Hook {
	return p.side(AtReturn, fn, spec.SideCallee, nparams)
}

// BeforeCall returns the hooks immediately before a call to callee.
func (p *Plan) BeforeCall(callee string, nargs int) []Hook {
	return p.side(AtCall, callee, spec.SideCaller, nargs)
}

// AfterCall returns the hooks immediately after a call to callee.
func (p *Plan) AfterCall(callee string, nargs int) []Hook {
	return p.side(AtReturn, callee, spec.SideCaller, nargs)
}

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

// side filters fn's hooks at point at to those compiled code observes on
// side, dropping the events with more argument patterns than the n
// arguments available there.
func (p *Plan) side(at Point, fn string, side spec.InstrSide, n int) []Hook {
	if Intrinsic(fn) {
		return nil
	}
	var out []Hook
	for _, h := range p.points[at][fn] {
		if h.Side == side && (h.Kind != HookEvent || len(h.Sym.Args) <= n) {
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
