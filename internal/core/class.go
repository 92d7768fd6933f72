package core

import "fmt"

// TransFlags annotate a transition with lifecycle roles (§4.4.1).
type TransFlags uint8

const (
	// TransInit marks a transition that may create a fresh automaton
	// instance, e.g. entry into the function bounding the assertion.
	TransInit TransFlags = 1 << iota

	// TransCleanup marks a transition that finalises (accepts) an
	// instance, e.g. return from the bounding function. After a cleanup
	// event the class is reset: all instances are expunged and libtesla
	// resumes ignoring events until the next «init».
	TransCleanup
)

// Transition is one edge of an automaton class: on the triggering event, an
// instance in state From moves to state To. KeyMask is the set of key slots
// the instance is expected to have bound after the transition applies.
type Transition struct {
	From    uint32
	To      uint32
	KeyMask uint32
	Flags   TransFlags
}

// Init reports whether the transition can create an instance.
func (t Transition) Init() bool { return t.Flags&TransInit != 0 }

// Cleanup reports whether the transition finalises an instance.
func (t Transition) Cleanup() bool { return t.Flags&TransCleanup != 0 }

func (t Transition) String() string {
	s := fmt.Sprintf("%d→%d", t.From, t.To)
	if t.Init() {
		s += " «init»"
	}
	if t.Cleanup() {
		s += " «cleanup»"
	}
	return s
}

// TransitionSet is every transition of one automaton class that a single
// program event can drive. Event translators assemble the set statically;
// UpdateStatePlan picks the edge each live instance can take.
type TransitionSet []Transition

// HasInit reports whether any member can create an instance.
func (ts TransitionSet) HasInit() bool {
	for _, t := range ts {
		if t.Init() {
			return true
		}
	}
	return false
}

// HasCleanup reports whether any member finalises instances.
func (ts TransitionSet) HasCleanup() bool {
	for _, t := range ts {
		if t.Cleanup() {
			return true
		}
	}
	return false
}

// SymbolFlags control how UpdateStatePlan treats an event with respect to
// instances that cannot accept it.
type SymbolFlags uint8

const (
	// SymRequired marks events that some live instance must accept —
	// reaching an assertion site is the canonical example: if no instance
	// matching the site's bindings can take the transition, the assertion
	// has failed (§4.4.1 “Error”).
	SymRequired SymbolFlags = 1 << iota

	// SymStrict marks events from `strict` automata: an instance whose
	// key matches but whose state has no transition for the event is a
	// violation rather than an ignorable occurrence.
	SymStrict
)

// Class is one programmer-specified automaton. Instances of the class are
// managed by a Store and differentiated by Key. What a violation or an
// overflow does is the store's policy (StoreOpts), not the class's.
type Class struct {
	// Name identifies the automaton, conventionally "file:line" of the
	// assertion site or a programmer-supplied label.
	Name string

	// Description is the assertion source text, reported on violations.
	Description string

	// States is the number of DFA states; state 0 is the pre-init state.
	States uint32

	// Limit bounds live instances per store. Stores preallocate Limit
	// slots so that automaton bookkeeping never allocates in code paths
	// that cannot (§4.4.1); overflow is reported, not fatal.
	Limit int
}

// DefaultInstanceLimit is used when a Class does not set Limit. The
// reference implementation similarly preallocates a fixed-size block.
const DefaultInstanceLimit = 32

func (c *Class) limit() int {
	if c.Limit > 0 {
		return c.Limit
	}
	return DefaultInstanceLimit
}

func (c *Class) String() string {
	return fmt.Sprintf("automaton %q (%d states)", c.Name, c.States)
}

// Instance is one live copy of an automaton class, named by the variable
// values it has bound.
type Instance struct {
	State  uint32
	Key    Key
	Active bool

	// birth orders activations class-wide: events drive candidates and
	// EvictOldest picks its victim in this order, and an event's
	// pre-snapshotted candidate list detects by it a slot that was
	// evicted and reused mid-event.
	birth uint64
}
