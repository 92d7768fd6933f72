// Package automata compiles TESLA assertions (internal/spec) into the
// finite-state automata that drive program instrumentation (§4.1 of the
// paper). Each assertion becomes an Automaton: an alphabet of Symbols
// (observable program events), a deterministic transition table, and the
// init/cleanup structure libtesla (internal/core) needs to manage instances.
package automata

import (
	"fmt"

	"tesla/internal/core"
	"tesla/internal/spec"
)

// SymKind classifies automaton alphabet symbols.
type SymKind int

const (
	// KindBoundBegin is entry into the assertion's bounding function; it
	// drives the «init» transition.
	KindBoundBegin SymKind = iota
	// KindBoundEnd is return from the bounding function; it drives
	// «cleanup» transitions.
	KindBoundEnd
	// KindSite is execution reaching the assertion site. It binds every
	// scope variable the assertion names and is always required: if no
	// instance can accept it, the assertion has failed.
	KindSite
	// KindFuncEntry observes a function call (arguments available).
	KindFuncEntry
	// KindFuncExit observes a function return (arguments + return value).
	KindFuncExit
	// KindFieldAssign observes a structure-field assignment.
	KindFieldAssign
	// KindInCallStack is the pseudo-event `incallstack(fn)`: synthesised
	// by the dispatcher immediately before the site event when fn is on
	// the call stack (fig. 7).
	KindInCallStack
)

func (k SymKind) String() string {
	switch k {
	case KindBoundBegin:
		return "bound-begin"
	case KindBoundEnd:
		return "bound-end"
	case KindSite:
		return "site"
	case KindFuncEntry:
		return "func-entry"
	case KindFuncExit:
		return "func-exit"
	case KindFieldAssign:
		return "field-assign"
	case KindInCallStack:
		return "incallstack"
	default:
		return fmt.Sprintf("SymKind(%d)", int(k))
	}
}

// CapSrc says where a key-slot value is captured from at event time.
type CapSrc int

const (
	// CapArg captures argument Index.
	CapArg CapSrc = iota
	// CapRet captures the return value.
	CapRet
	// CapTarget captures the structure instance of a field assignment.
	CapTarget
	// CapValue captures the assigned value of a field assignment.
	CapValue
	// CapSiteVar captures scope variable Index at the assertion site.
	CapSiteVar
)

// SlotCapture tells the event translator how to populate key slot Slot.
type SlotCapture struct {
	Slot     int
	Src      CapSrc
	Index    int
	Indirect bool
}

// Symbol is one letter of an automaton's alphabet: an observable program
// event together with its static argument checks and key captures. The
// instrumenter generates one event translator per (instrumentation point,
// symbol) pair; the translator performs the Symbol's static checks and, if
// they pass, builds the key and calls core.Store.UpdateStatePlan with the
// symbol's TransitionSet.
type Symbol struct {
	ID   int
	Name string
	Kind SymKind

	// Fn is the function name (or Objective-C selector) for function
	// events, bound events and incallstack.
	Fn   string
	ObjC bool
	// Side selects caller/callee instrumentation for function events.
	Side spec.InstrSide

	// Args/Ret are the static patterns for function events.
	Args []spec.ArgPattern
	Ret  *spec.ArgPattern

	// Struct/Field/AssignOp/Target/Value describe field-assign events.
	Struct   string
	Field    string
	AssignOp spec.AssignOp
	Target   spec.ArgPattern
	Value    spec.ArgPattern

	// Captures populate key slots from the event.
	Captures []SlotCapture
	// ProvidesMask is the key mask of the slots this symbol binds.
	ProvidesMask uint32

	// Flags passed to UpdateStatePlan (SymRequired for sites, SymStrict for
	// strict assertions).
	Flags core.SymbolFlags
}

func (s *Symbol) String() string { return s.Name }
