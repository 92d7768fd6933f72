package core

import (
	"fmt"
	"io"
	"sync"
)

// Handler receives lifecycle notifications from a Store (§4.4.2: “TESLA has
// a pluggable event notification framework with a set of default handlers
// and support for user-provided handler callbacks”). All of the event types
// from §4.4.1 are reported: instance initialisation, clones, updates, errors
// and finalisation (automaton acceptance).
//
// Handlers are invoked after the store has released its internal locks: an
// event's notifications are buffered during the critical section and
// dispatched once it ends, so a handler may block or call back into the same
// store without stalling monitored threads. Instance arguments are snapshot
// copies taken while the locks were held — the underlying slots may already
// have been reused by the time the handler runs, so pointers must not be
// retained. A panicking handler does not kill the program: panics are
// recovered and counted, and past Store's HandlerPanicLimit the handler is
// quarantined (see supervise.go).
type Handler interface {
	// InstanceNew is called when an «init» transition creates an instance.
	InstanceNew(cls *Class, inst *Instance)
	// InstanceClone is called when an event specialises an instance's key.
	InstanceClone(cls *Class, parent, clone *Instance)
	// Transition is called for every state change, including those made by
	// freshly created or cloned instances. symbol names the driving event.
	Transition(cls *Class, inst *Instance, from, to uint32, symbol string)
	// Accept is called when an instance finalises in an accepting state.
	Accept(cls *Class, inst *Instance)
	// Fail is called for every detected violation.
	Fail(v *Violation)
	// Overflow is called when instance creation exceeds the class limit.
	Overflow(cls *Class, key Key)
	// Evict is called when the EvictOldest overflow policy sacrifices a
	// live instance to make room for a new one.
	Evict(cls *Class, inst *Instance)
	// Quarantine is called when a class enters (on=true) or leaves
	// (on=false) quarantine under the QuarantineClass overflow policy.
	Quarantine(cls *Class, on bool)
}

// NopHandler discards all notifications. It is the building block for
// handlers that only care about a subset of events.
type NopHandler struct{}

func (NopHandler) InstanceNew(*Class, *Instance)                        {}
func (NopHandler) InstanceClone(*Class, *Instance, *Instance)           {}
func (NopHandler) Transition(*Class, *Instance, uint32, uint32, string) {}
func (NopHandler) Accept(*Class, *Instance)                             {}
func (NopHandler) Fail(*Violation)                                      {}
func (NopHandler) Overflow(*Class, Key)                                 {}
func (NopHandler) Evict(*Class, *Instance)                              {}
func (NopHandler) Quarantine(*Class, bool)                              {}

// PrintHandler writes human-readable event traces, the userspace default
// behaviour (normally directed at stderr, controlled by TESLA_DEBUG).
type PrintHandler struct {
	W io.Writer
}

func (h *PrintHandler) InstanceNew(cls *Class, inst *Instance) {
	fmt.Fprintf(h.W, "tesla: %s: new instance %s in state %d\n", cls.Name, inst.Key, inst.State)
}

func (h *PrintHandler) InstanceClone(cls *Class, parent, clone *Instance) {
	fmt.Fprintf(h.W, "tesla: %s: clone %s -> %s (state %d)\n", cls.Name, parent.Key, clone.Key, clone.State)
}

func (h *PrintHandler) Transition(cls *Class, inst *Instance, from, to uint32, symbol string) {
	fmt.Fprintf(h.W, "tesla: %s: %s: %d -> %d on %q\n", cls.Name, inst.Key, from, to, symbol)
}

func (h *PrintHandler) Accept(cls *Class, inst *Instance) {
	fmt.Fprintf(h.W, "tesla: %s: %s accepted\n", cls.Name, inst.Key)
}

func (h *PrintHandler) Fail(v *Violation) {
	fmt.Fprintf(h.W, "%s\n", v.Error())
}

func (h *PrintHandler) Overflow(cls *Class, key Key) {
	fmt.Fprintf(h.W, "tesla: %s: instance table overflow at %s\n", cls.Name, key)
}

func (h *PrintHandler) Evict(cls *Class, inst *Instance) {
	fmt.Fprintf(h.W, "tesla: %s: evicted oldest instance %s (state %d)\n", cls.Name, inst.Key, inst.State)
}

func (h *PrintHandler) Quarantine(cls *Class, on bool) {
	if on {
		fmt.Fprintf(h.W, "tesla: %s: class quarantined after repeated overflow\n", cls.Name)
	} else {
		fmt.Fprintf(h.W, "tesla: %s: class re-armed\n", cls.Name)
	}
}

// TransitionEdge identifies one automaton edge for coverage accounting.
type TransitionEdge struct {
	Class  string
	From   uint32
	To     uint32
	Symbol string
}

// CountingHandler aggregates per-edge transition counts, the data behind the
// weighted automaton graphs of figure 9 and TESLA's “logical coverage”
// reporting. It is safe for concurrent use.
type CountingHandler struct {
	NopHandler

	mu         sync.Mutex
	edges      map[TransitionEdge]uint64
	accepts    map[string]uint64
	violations []*Violation
}

// NewCountingHandler returns an empty CountingHandler.
func NewCountingHandler() *CountingHandler {
	return &CountingHandler{
		edges:   make(map[TransitionEdge]uint64),
		accepts: make(map[string]uint64),
	}
}

func (h *CountingHandler) Transition(cls *Class, inst *Instance, from, to uint32, symbol string) {
	h.mu.Lock()
	h.edges[TransitionEdge{cls.Name, from, to, symbol}]++
	h.mu.Unlock()
}

func (h *CountingHandler) Accept(cls *Class, inst *Instance) {
	h.mu.Lock()
	h.accepts[cls.Name]++
	h.mu.Unlock()
}

func (h *CountingHandler) Fail(v *Violation) {
	h.mu.Lock()
	h.violations = append(h.violations, v)
	h.mu.Unlock()
}

// Edges returns a copy of all edge counts.
func (h *CountingHandler) Edges() map[TransitionEdge]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[TransitionEdge]uint64, len(h.edges))
	for e, n := range h.edges {
		out[e] = n
	}
	return out
}

// Accepts returns how many instances of the named class accepted.
func (h *CountingHandler) Accepts(class string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.accepts[class]
}

// Violations returns the violations observed so far.
func (h *CountingHandler) Violations() []*Violation {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Violation(nil), h.violations...)
}

// MultiHandler fans notifications out to several handlers in order.
type MultiHandler []Handler

func (m MultiHandler) InstanceNew(cls *Class, inst *Instance) {
	for _, h := range m {
		h.InstanceNew(cls, inst)
	}
}

func (m MultiHandler) InstanceClone(cls *Class, parent, clone *Instance) {
	for _, h := range m {
		h.InstanceClone(cls, parent, clone)
	}
}

func (m MultiHandler) Transition(cls *Class, inst *Instance, from, to uint32, symbol string) {
	for _, h := range m {
		h.Transition(cls, inst, from, to, symbol)
	}
}

func (m MultiHandler) Accept(cls *Class, inst *Instance) {
	for _, h := range m {
		h.Accept(cls, inst)
	}
}

func (m MultiHandler) Fail(v *Violation) {
	for _, h := range m {
		h.Fail(v)
	}
}

func (m MultiHandler) Overflow(cls *Class, key Key) {
	for _, h := range m {
		h.Overflow(cls, key)
	}
}

func (m MultiHandler) Evict(cls *Class, inst *Instance) {
	for _, h := range m {
		h.Evict(cls, inst)
	}
}

func (m MultiHandler) Quarantine(cls *Class, on bool) {
	for _, h := range m {
		h.Quarantine(cls, on)
	}
}
