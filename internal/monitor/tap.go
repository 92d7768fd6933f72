package monitor

import (
	"tesla/internal/core"
	"tesla/internal/spec"
)

// This file is the monitor's raw-event tap: an optional observer that sees
// every program event entering a Thread *before* dispatch, in the exact form
// needed to reproduce the dispatch later. internal/trace builds its ring
// buffers on this interface; the replayer feeds recorded events back through
// the same Thread entry points without re-running the VM or substrate.
//
// The tap is zero-cost when absent: an entry point builds a ProgramEvent
// only when a tap or the batched ring takes it, and the caller's argument
// slices escape to neither (emit), Deliver's to the tap excepted. That
// escape heap-allocates a slice a direct caller builds on its stack on
// every call; the VM lends Deliver one buffer it reuses, which allocates
// nothing.

// ProgKind classifies raw program events (the Thread entry points).
type ProgKind uint8

const (
	// ProgCall is Thread.Call: entry into a named function.
	ProgCall ProgKind = iota
	// ProgReturn is Thread.Return: return from a named function.
	ProgReturn
	// ProgSend is Thread.Send: an Objective-C message send.
	ProgSend
	// ProgSendReturn is Thread.SendReturn: an Objective-C message return.
	ProgSendReturn
	// ProgAssign is Thread.Assign: a structure-field assignment.
	ProgAssign
	// ProgSite is Thread.Site/SiteByIndex: execution reaching an assertion
	// site, with incallstack branches already resolved (InStack).
	ProgSite
	// ProgBoundBegin is Thread.BoundBegin: an IR bound-entry hook.
	ProgBoundBegin
	// ProgBoundEnd is Thread.BoundEnd: an IR bound-exit hook.
	ProgBoundEnd
	// ProgDeliver is Thread.Deliver: a pre-matched event from a generated
	// translator (automaton index + symbol ID + captured values).
	ProgDeliver
)

func (k ProgKind) String() string {
	switch k {
	case ProgCall:
		return "call"
	case ProgReturn:
		return "return"
	case ProgSend:
		return "send"
	case ProgSendReturn:
		return "send-return"
	case ProgAssign:
		return "assign"
	case ProgSite:
		return "site"
	case ProgBoundBegin:
		return "bound-begin"
	case ProgBoundEnd:
		return "bound-end"
	case ProgDeliver:
		return "deliver"
	default:
		return "ProgKind(?)"
	}
}

// ProgramEvent is one raw event as it entered a Thread. In ProgramEvent
// callbacks the slice fields (Vals, InStack) are thread-owned buffers that
// the thread reuses for its next event, or for Deliver the caller's own
// slice: a sink that retains the event beyond the callback must copy them.
type ProgramEvent struct {
	Kind ProgKind
	// Time is the thread's clock at the event (VM step count when the
	// thread is attached to a VM; 0 without a clock).
	Time int64
	// Fn is the function name, selector, struct name (Assign) or
	// automaton name (Site), per Kind.
	Fn string
	// Field is the assigned field for ProgAssign.
	Field string
	// Op is the assignment operator for ProgAssign.
	Op spec.AssignOp
	// Auto/Sym locate the automaton and symbol for ProgSite (Auto only)
	// and ProgDeliver.
	Auto, Sym int
	// Slot is the bound slot for ProgBoundBegin/ProgBoundEnd.
	Slot int
	// Ret is the return value for ProgReturn/ProgSendReturn.
	Ret    core.Value
	HasRet bool
	// Vals are the event's observed values: arguments (Call/Return),
	// receiver then arguments (Send/SendReturn), {target, value}
	// (Assign), scope-variable values (Site), captured values (Deliver).
	Vals []core.Value
	// InStack lists the incallstack symbol IDs that matched the thread's
	// call stack at a ProgSite event, so replay needs no stack.
	InStack []int
}

// Tap hands out per-thread event sinks. ThreadTap is called once from
// Monitor.NewThread; the returned sink is used only from that thread, so
// implementations need no locking on the sink path.
type Tap interface {
	ThreadTap(threadID int) ThreadTap
}

// ThreadTap receives one thread's raw program events in order.
type ThreadTap interface {
	ProgramEvent(ev ProgramEvent)
}

// BatchThreadTap is the optional batch extension of ThreadTap. When a
// thread runs the batched event plane (Options.BatchSize > 0) and its sink
// implements this interface, each ring flush delivers the whole batch in
// one call, amortising sink locking — this is the Recorder/ring unification:
// events are staged once in the thread's ring and handed over wholesale.
// Ownership differs from ProgramEvent's borrowed slices: the events' Vals
// and InStack slices were copied at staging time and become the sink's to
// keep; the evs slice itself is only valid during the call.
type BatchThreadTap interface {
	ThreadTap
	ProgramBatch(evs []ProgramEvent)
}
