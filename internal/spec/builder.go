package spec

// This file provides the Go builder DSL, mirroring the high-level TESLA
// macros. Go substrates in this repository use the DSL where C code would
// use TESLA_WITHIN(...) et al.; both produce identical Assertion trees.

// SyscallFn is the function bounding TESLA_SYSCALL* assertions; in the
// paper's FreeBSD case study this is amd64_syscall (fig. 9).
var SyscallFn = "amd64_syscall"

// Within builds TESLA_WITHIN(fn, expr): a per-thread assertion bounded by
// the execution of fn.
func Within(name, fn string, expr Expr) *Assertion {
	return &Assertion{Name: name, Context: PerThread, Bound: WithinBound(fn), Expr: expr}
}

// GlobalWithin is Within in the global (cross-thread) context.
func GlobalWithin(name, fn string, expr Expr) *Assertion {
	a := Within(name, fn, expr)
	a.Context = Global
	return a
}

// Assert builds TESLA_ASSERT(context, start, end, expr) with explicit bounds.
func Assert(name string, ctx Context, bound Bound, expr Expr) *Assertion {
	return &Assertion{Name: name, Context: ctx, Bound: bound, Expr: expr}
}

// SyscallPreviously builds TESLA_SYSCALL_PREVIOUSLY(expr): within the
// current system call, expr previously held (fig. 4).
func SyscallPreviously(name string, exprs ...Expr) *Assertion {
	return Within(name, SyscallFn, Previously(exprs...))
}

// SyscallEventually builds the eventually counterpart within a system call.
func SyscallEventually(name string, exprs ...Expr) *Assertion {
	return Within(name, SyscallFn, Eventually(exprs...))
}

// Syscall builds TESLA_SYSCALL(expr): a syscall-bounded assertion whose
// expression already mentions the assertion site (fig. 7).
func Syscall(name string, expr Expr) *Assertion {
	return Within(name, SyscallFn, expr)
}

// TSequence is TSEQUENCE(e₁, …): the events in order.
func TSequence(exprs ...Expr) Expr { return &Sequence{Exprs: exprs} }

// Previously is previously(x₁, …, xₙ), expanding to
// [x₁, …, xₙ, TESLA_ASSERTION_SITE] (§3.4.1).
func Previously(exprs ...Expr) Expr {
	return &Sequence{Exprs: append(append([]Expr{}, exprs...), Site())}
}

// Eventually is eventually(x₁, …, xₙ), expanding to
// [TESLA_ASSERTION_SITE, x₁, …, xₙ].
func Eventually(exprs ...Expr) Expr {
	return &Sequence{Exprs: append([]Expr{Site()}, exprs...)}
}

// Site is the explicit TESLA_ASSERTION_SITE event.
func Site() Expr { return &AssertionSite{} }

// Or combines expressions with the inclusive-or operator.
func Or(exprs ...Expr) Expr { return &BoolExpr{Op: OrOp, Exprs: exprs} }

// Xor combines expressions with exclusive or.
func Xor(exprs ...Expr) Expr { return &BoolExpr{Op: XorOp, Exprs: exprs} }

// Opt marks a sub-expression optional.
func Opt(e Expr) Expr { return &Optional{Expr: e} }

// AtLeast is ATLEAST(n, events…): n or more occurrences drawn from the
// events, in any order.
func AtLeast(min int, exprs ...Expr) Expr { return &ATLeast{Min: min, Exprs: exprs} }

// InStack is incallstack(fn).
func InStack(fn string) Expr { return &InCallStack{Fn: fn} }

// Call is call(fn(args…)): entry into fn with matching arguments.
func Call(fn string, args ...ArgPattern) *FunctionEvent {
	return &FunctionEvent{Fn: fn, Kind: FuncEntry, Args: args}
}

// ReturnFrom is returnfrom(fn(args…)): return from fn, any return value.
func ReturnFrom(fn string, args ...ArgPattern) *FunctionEvent {
	return &FunctionEvent{Fn: fn, Kind: FuncExit, Args: args}
}

// Returns constrains the event to returns whose value matches v, converting
// a call pattern into the grammar's `fn(args) == val` form.
func (f *FunctionEvent) Returns(v ArgPattern) *FunctionEvent {
	g := *f
	g.Kind = FuncExit
	g.Ret = &v
	return &g
}

// ReturnsInt is shorthand for Returns(Int(v)).
func (f *FunctionEvent) ReturnsInt(v int64) *FunctionEvent { return f.Returns(Int(v)) }

// Msg is an Objective-C message-send event: [receiver selector args…].
func Msg(receiver ArgPattern, selector string, args ...ArgPattern) *FunctionEvent {
	return &FunctionEvent{
		Fn:   selector,
		Kind: FuncEntry,
		Args: append([]ArgPattern{receiver}, args...),
		ObjC: true,
	}
}

// MsgReturn observes the return of an Objective-C message (fig. 8's "extra
// events on method return").
func MsgReturn(receiver ArgPattern, selector string, args ...ArgPattern) *FunctionEvent {
	m := Msg(receiver, selector, args...)
	m.Kind = FuncExit
	return m
}

// FieldAssign is the event `target.field = value` for struct type structName.
func FieldAssign(structName, field string, target, value ArgPattern) *FieldAssignEvent {
	return &FieldAssignEvent{Struct: structName, Field: field, Op: OpAssign, Target: target, Value: value}
}

// FieldAddAssign is `target.field += value`.
func FieldAddAssign(structName, field string, target, value ArgPattern) *FieldAssignEvent {
	return &FieldAssignEvent{Struct: structName, Field: field, Op: OpAddAssign, Target: target, Value: value}
}

// FieldIncr is `target.field++`.
func FieldIncr(structName, field string, target ArgPattern) *FieldAssignEvent {
	return &FieldAssignEvent{Struct: structName, Field: field, Op: OpIncr, Target: target, Value: Any("")}
}

// Any is ANY(type): match any value of the named C type.
func Any(ctype string) ArgPattern { return ArgPattern{Kind: PatAny, CType: ctype} }

// AnyPtr is ANY(ptr).
func AnyPtr() ArgPattern { return Any("ptr") }

// AnyInt is ANY(int).
func AnyInt() ArgPattern { return Any("int") }

// Int matches the exact constant v.
func Int(v int64) ArgPattern { return ArgPattern{Kind: PatConst, Const: v} }

// Var matches the scope variable name; occurrences of the same name bind
// one automaton key slot.
func Var(name string) ArgPattern { return ArgPattern{Kind: PatVar, Var: name} }

// Flags requires all bits of f to be set (minimal bitfield pattern).
func Flags(f int64) ArgPattern { return ArgPattern{Kind: PatFlags, Const: f} }

// Bitmask requires no bits outside f (maximal bitfield pattern).
func Bitmask(f int64) ArgPattern { return ArgPattern{Kind: PatBitmask, Const: f} }

// Deref matches indirectly: the pattern applies to the value the argument
// points at (the C address-of form &x, for out-parameters).
func Deref(p ArgPattern) ArgPattern {
	p.Indirect = true
	return p
}
