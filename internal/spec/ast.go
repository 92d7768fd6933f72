// Package spec defines the TESLA assertion language: an abstract syntax for
// the grammar of figure 5 of the paper, a parser for the high-level macro
// syntax (TESLA_WITHIN, previously, eventually, TSEQUENCE, …) and a Go
// builder DSL producing the same trees.
//
// Temporal assertions augment standard assertions with keywords such as
// previously and eventually that specify temporal events relative to the
// moment the assertion site is reached (§3.1). An assertion consists of a
// context (§3.2), temporal bounds (§3.3) and an expression (§3.4).
package spec

import (
	"fmt"
	"strings"
)

// Context selects thread-local or global automata state (§3.2).
type Context int

const (
	// PerThread uses implicit per-thread event serialisation.
	PerThread Context = iota
	// Global provides explicit synchronisation for behaviours that span
	// threads.
	Global
)

func (c Context) String() string {
	if c == Global {
		return "global"
	}
	return "per-thread"
}

// StaticKind distinguishes the two static (bound) event forms.
type StaticKind int

const (
	// StaticCall is `call(fnName)`: entry into fnName.
	StaticCall StaticKind = iota
	// StaticReturn is `returnfrom(fnName)`: return from fnName.
	StaticReturn
)

// StaticEvent is a bound event: a bare function entry or return with no
// argument patterns (grammar rule staticExpr).
type StaticEvent struct {
	Kind StaticKind
	Fn   string
}

func (e StaticEvent) String() string {
	if e.Kind == StaticCall {
		return fmt.Sprintf("call(%s)", e.Fn)
	}
	return fmt.Sprintf("returnfrom(%s)", e.Fn)
}

// Bound delimits the period during which an assertion's automata may exist
// (§3.3). Bounds let libtesla control its memory footprint: automata are
// initialised at Begin and finalised at End.
type Bound struct {
	Begin StaticEvent
	End   StaticEvent
}

// WithinBound is the TESLA_WITHIN(fn, …) bound: from entry into fn until
// return from it.
func WithinBound(fn string) Bound {
	return Bound{
		Begin: StaticEvent{Kind: StaticCall, Fn: fn},
		End:   StaticEvent{Kind: StaticReturn, Fn: fn},
	}
}

func (b Bound) String() string {
	return fmt.Sprintf("%s, %s", b.Begin, b.End)
}

// Assertion is a complete temporal assertion: context, bound, expression.
type Assertion struct {
	// Name identifies the assertion; by convention "file:line" of the
	// assertion site.
	Name    string
	Context Context
	Bound   Bound
	Expr    Expr
	// Strict, when set, makes every instrumented event significant: an
	// instance observing an event its state cannot accept is a violation
	// (the `strict` modifier; the default is `conditional`).
	Strict bool
}

func (a *Assertion) String() string {
	ctx := "TESLA_PERTHREAD"
	if a.Context == Global {
		ctx = "TESLA_GLOBAL"
	}
	expr := a.Expr.String()
	if a.Strict {
		// Printed in the parseable modifier form so manifests
		// round-trip.
		expr = "strict(" + expr + ")"
	}
	return fmt.Sprintf("%s(%s, %s)", ctx, a.Bound, expr)
}

// Expr is a TESLA expression (grammar rule expr): a concrete event, an
// operator over sub-expressions, or a modifier application.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Sequence is TSEQUENCE(e₁, …, eₙ): the sub-expressions in order.
// previously(x) and eventually(x) are macros expanding to sequences that
// include the assertion-site event (§3.4.1 “Assertion site”).
type Sequence struct {
	Exprs []Expr
}

func (*Sequence) isExpr() {}

func (s *Sequence) String() string {
	return "TSEQUENCE(" + joinExprs(s.Exprs) + ")"
}

// BoolOp is a boolean operator over expressions.
type BoolOp int

const (
	// OrOp is inclusive or: at least one operand occurred; it is not an
	// error for both to occur (§3.4.2). Implemented by a cross-product
	// automaton tracking the operands independently.
	OrOp BoolOp = iota
	// XorOp is exclusive or: exactly one operand may occur.
	XorOp
)

func (o BoolOp) String() string {
	if o == XorOp {
		return "^"
	}
	return "||"
}

// BoolExpr is e₁ op e₂ (op … )*.
type BoolExpr struct {
	Op    BoolOp
	Exprs []Expr
}

func (*BoolExpr) isExpr() {}

func (b *BoolExpr) String() string {
	parts := make([]string, len(b.Exprs))
	for i, e := range b.Exprs {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " "+b.Op.String()+" ") + ")"
}

// Optional marks a sub-expression that may be skipped.
type Optional struct {
	Expr Expr
}

func (*Optional) isExpr() {}

func (o *Optional) String() string { return "optional(" + o.Expr.String() + ")" }

// ATLeast is ATLEAST(n, e₁, …, eₖ): at least n occurrences drawn from the
// listed events, in any order (fig. 8 uses ATLEAST(0, …) to instrument a
// large API surface for tracing).
type ATLeast struct {
	Min   int
	Exprs []Expr
}

func (*ATLeast) isExpr() {}

func (a *ATLeast) String() string {
	return fmt.Sprintf("ATLEAST(%d, %s)", a.Min, joinExprs(a.Exprs))
}

// InCallStack is incallstack(fn): the assertion site is reached while fn is
// on the call stack (fig. 7's ufs_readdir case).
type InCallStack struct {
	Fn string
}

func (*InCallStack) isExpr() {}

func (i *InCallStack) String() string { return fmt.Sprintf("incallstack(%s)", i.Fn) }

// AssertionSite is the concrete event of program execution reaching the
// assertion's source location. It binds every scope variable the assertion
// names.
type AssertionSite struct{}

func (*AssertionSite) isExpr() {}

func (*AssertionSite) String() string { return "TESLA_ASSERTION_SITE" }

// InstrSide selects where function instrumentation is added (§4.2): callee
// context instruments the target function's entry and returns (requires its
// source); caller context instruments around call sites (works for
// libraries that cannot be recompiled).
//
// The zero value lets the instrumenter pick: callee when the function is
// defined in the instrumented module, caller otherwise.
type InstrSide int

const (
	_ InstrSide = iota
	// SideCallee forces callee-side instrumentation.
	SideCallee
	// SideCaller forces caller-side instrumentation.
	SideCaller
)

// FuncEventKind distinguishes call (entry) from return (exit) events.
type FuncEventKind int

const (
	// FuncEntry observes a call: arguments are available.
	FuncEntry FuncEventKind = iota
	// FuncExit observes a return: arguments and return value available.
	FuncExit
)

// FunctionEvent is a concrete function call or return event, optionally
// constrained by argument patterns and a return value (§3.4.1).
type FunctionEvent struct {
	Fn   string
	Kind FuncEventKind
	// Args patterns; empty means "any arguments".
	Args []ArgPattern
	// Ret, when non-nil, constrains the return value (the `fn(args) == v`
	// grammar form); only meaningful for FuncExit.
	Ret *ArgPattern
	// Side selects caller/callee instrumentation (modifiers).
	Side InstrSide
	// ObjC marks an Objective-C message-send event: Fn is the selector
	// and Args[0] matches the receiver (§4.3).
	ObjC bool
}

func (*FunctionEvent) isExpr() {}

func (f *FunctionEvent) String() string {
	var b strings.Builder
	if f.ObjC {
		// Message sends print in keyword-selector form so they
		// reparse: [recv part1: arg1 part2: arg2] — or [recv sel]
		// for unary selectors.
		b.WriteString("[")
		if len(f.Args) > 0 {
			b.WriteString(f.Args[0].String())
			b.WriteString(" ")
		}
		if parts := strings.Split(f.Fn, ":"); len(parts) > 1 && parts[len(parts)-1] == "" {
			rest := f.Args[1:]
			for i, part := range parts[:len(parts)-1] {
				if i > 0 {
					b.WriteString(" ")
				}
				b.WriteString(part)
				b.WriteString(":")
				if i < len(rest) {
					b.WriteString(" ")
					b.WriteString(rest[i].String())
				}
			}
		} else {
			b.WriteString(f.Fn)
		}
		b.WriteString("]")
	} else {
		b.WriteString(f.Fn)
		b.WriteString("(")
		for i, a := range f.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(")")
	}
	inner := b.String()
	switch {
	case f.Ret != nil:
		inner = fmt.Sprintf("%s == %s", inner, f.Ret)
	case f.ObjC && f.Kind == FuncEntry:
		// The bracket form already denotes a message send.
	case f.Kind == FuncEntry:
		inner = fmt.Sprintf("call(%s)", inner)
	default:
		inner = fmt.Sprintf("returnfrom(%s)", inner)
	}
	switch f.Side {
	case SideCallee:
		inner = "callee(" + inner + ")"
	case SideCaller:
		inner = "caller(" + inner + ")"
	}
	return inner
}

// AssignOp is the kind of structure-field assignment observed.
type AssignOp int

const (
	// OpAssign is simple assignment: s.foo = v.
	OpAssign AssignOp = iota
	// OpAddAssign is compound assignment: s.foo += v.
	OpAddAssign
	// OpIncr is increment: s.foo++.
	OpIncr
)

func (o AssignOp) String() string {
	switch o {
	case OpAddAssign:
		return "+="
	case OpIncr:
		return "++"
	default:
		return "="
	}
}

// FieldAssignEvent is the concrete event of assignment to a structure field
// (§3.4.1 “Field assignment”).
type FieldAssignEvent struct {
	// Struct and Field name the C structure type and member.
	Struct string
	Field  string
	Op     AssignOp
	// Target matches the structure instance being written.
	Target ArgPattern
	// Value matches the assigned value (ignored for OpIncr).
	Value ArgPattern
}

func (*FieldAssignEvent) isExpr() {}

func (f *FieldAssignEvent) String() string {
	lhs := fmt.Sprintf("%s.%s", f.Target, f.Field)
	if f.Struct != "" {
		// The struct qualifier keeps the event unambiguous when the
		// assertion is reparsed from a manifest, outside the scope
		// that originally resolved the variable's type.
		lhs = f.Struct + "::" + lhs
	}
	if f.Op == OpIncr {
		return lhs + "++"
	}
	return fmt.Sprintf("%s %s %s", lhs, f.Op, f.Value)
}

// PatternKind classifies argument patterns (grammar rule val).
type PatternKind int

const (
	// PatAny is ANY(type): a wildcard matching any value.
	PatAny PatternKind = iota
	// PatConst matches a specific constant value.
	PatConst
	// PatVar matches a named variable bound from the assertion's scope;
	// variables become automaton key slots.
	PatVar
	// PatFlags is flags(F): the argument must have all bits of F set
	// (minimal bitfield).
	PatFlags
	// PatBitmask is bitmask(F): the argument must have no bits outside F
	// (maximal bitfield).
	PatBitmask
)

// ArgPattern matches one argument or return value.
type ArgPattern struct {
	Kind  PatternKind
	Const int64
	Var   string
	// CType records the C type named in ANY(type), for documentation.
	CType string
	// Indirect matches the value *pointed to* by the argument, using the
	// C address-of operator form (&x). This supports APIs that pass
	// values out by pointer, using return values for error codes.
	Indirect bool
}

func (p ArgPattern) String() string {
	var s string
	switch p.Kind {
	case PatAny:
		t := p.CType
		if t == "" {
			t = "?"
		}
		s = fmt.Sprintf("ANY(%s)", t)
	case PatConst:
		s = fmt.Sprintf("%d", p.Const)
	case PatVar:
		s = p.Var
	case PatFlags:
		s = fmt.Sprintf("flags(0x%x)", p.Const)
	case PatBitmask:
		s = fmt.Sprintf("bitmask(0x%x)", p.Const)
	}
	if p.Indirect {
		s = "&" + s
	}
	return s
}

// Matches reports whether the pattern accepts the value (for PatVar the
// caller must resolve the binding; Matches treats it as accepting any).
func (p ArgPattern) Matches(v int64) bool {
	switch p.Kind {
	case PatConst:
		return v == p.Const
	case PatFlags:
		return v&p.Const == p.Const
	case PatBitmask:
		return v&^p.Const == 0
	default:
		return true
	}
}

func joinExprs(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// Vars returns the scope-variable names referenced by the expression, in
// first-appearance order. These become the automaton's key slots.
func Vars(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(p ArgPattern) {
		if p.Kind == PatVar && !seen[p.Var] {
			seen[p.Var] = true
			out = append(out, p.Var)
		}
	}
	Walk(e, func(e Expr) {
		switch ev := e.(type) {
		case *FunctionEvent:
			for _, a := range ev.Args {
				add(a)
			}
			if ev.Ret != nil {
				add(*ev.Ret)
			}
		case *FieldAssignEvent:
			add(ev.Target)
			add(ev.Value)
		}
	})
	return out
}

// Walk applies fn to e and every sub-expression, depth-first.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch v := e.(type) {
	case *Sequence:
		for _, sub := range v.Exprs {
			Walk(sub, fn)
		}
	case *BoolExpr:
		for _, sub := range v.Exprs {
			Walk(sub, fn)
		}
	case *Optional:
		Walk(v.Expr, fn)
	case *ATLeast:
		for _, sub := range v.Exprs {
			Walk(sub, fn)
		}
	}
}
