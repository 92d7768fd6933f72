// Package objc is a miniature Objective-C runtime: selector-based dynamic
// dispatch with an interposition mechanism. In the paper (§4.3), methods
// can be replaced at run time, so callee-side instrumentation is impossible
// statically; instead the modified GNUstep runtime consults a global table
// of interposition hooks before calling any method. That table — and the
// performance ladder of figure 14a (no tracing compiled in, tracing
// support idle, trivial interposition, full TESLA) — is reproduced here.
package objc

import (
	"fmt"

	"tesla/internal/core"
	"tesla/internal/monitor"
)

// Method is an implementation bound to a selector.
type Method func(rt *Runtime, self *Object, args ...core.Value) core.Value

// Class is an Objective-C class: a method table with single inheritance.
type Class struct {
	Name    string
	Super   *Class
	methods map[string]Method
}

// NewClass creates a class.
func NewClass(name string, super *Class) *Class {
	return &Class{Name: name, Super: super, methods: map[string]Method{}}
}

// AddMethod installs (or replaces — this is a dynamic language) a method.
func (c *Class) AddMethod(selector string, m Method) {
	c.methods[selector] = m
}

func (c *Class) lookup(selector string) Method {
	for cl := c; cl != nil; cl = cl.Super {
		if m, ok := cl.methods[selector]; ok {
			return m
		}
	}
	return nil
}

// Object is an instance.
type Object struct {
	ID    core.Value
	Class *Class
	// IVars is simple instance storage.
	IVars map[string]core.Value
}

// TraceMode is the runtime build/configuration ladder of figure 14a.
type TraceMode int

const (
	// NoTracing: a normal release build — dispatch never consults the
	// interposition table.
	NoTracing TraceMode = iota
	// TracingCompiled: the runtime is linked with tracing enabled, but
	// nothing is interposed; every send pays the table consultation.
	TracingCompiled
	// Interposed: a trivial interposition function is installed on the
	// instrumented selectors.
	Interposed
	// TESLA: interposition hooks forward events to a TESLA monitor
	// thread (and through it to automata and custom handlers).
	TESLA
)

func (m TraceMode) String() string {
	switch m {
	case NoTracing:
		return "release"
	case TracingCompiled:
		return "tracing-compiled"
	case Interposed:
		return "interposition"
	case TESLA:
		return "TESLA"
	default:
		return fmt.Sprintf("TraceMode(%d)", int(m))
	}
}

// Hook is an interposition callback invoked before the method runs.
type Hook func(self *Object, selector string, args []core.Value)

// Runtime is the Objective-C runtime instance.
type Runtime struct {
	Mode   TraceMode
	nextID core.Value

	// hooks is the global interposition table consulted before calling
	// any method (when tracing is compiled in).
	hooks map[string]Hook
	// retHooks fire after the method returns (fig. 8's "extra events on
	// method return").
	retHooks map[string]Hook

	// Thread, in TESLA mode, receives message-send events.
	Thread *monitor.Thread
	// MsgCount tallies dispatches for benchmarks.
	MsgCount uint64
}

// NewRuntime creates a runtime in the given mode.
func NewRuntime(mode TraceMode) *Runtime {
	return &Runtime{
		Mode:     mode,
		nextID:   1,
		hooks:    map[string]Hook{},
		retHooks: map[string]Hook{},
	}
}

// NewObject instantiates a class.
func (rt *Runtime) NewObject(c *Class) *Object {
	rt.nextID++
	return &Object{ID: rt.nextID, Class: c, IVars: map[string]core.Value{}}
}

// Interpose installs an entry hook for a selector.
func (rt *Runtime) Interpose(selector string, h Hook) {
	rt.hooks[selector] = h
}

// InterposeReturn installs a return hook for a selector.
func (rt *Runtime) InterposeReturn(selector string, h Hook) {
	rt.retHooks[selector] = h
}

// InterposeTESLA wires the given selectors to the monitor thread: the
// mechanism by which figure 8's assertion instruments ~110 AppKit methods
// without access to their source.
func (rt *Runtime) InterposeTESLA(th *monitor.Thread, selectors []string, returns []string) {
	rt.Thread = th
	for _, sel := range selectors {
		s := sel
		rt.Interpose(s, func(self *Object, _ string, args []core.Value) {
			th.Send(s, self.ID, args...)
		})
	}
	for _, sel := range returns {
		s := sel
		rt.InterposeReturn(s, func(self *Object, _ string, args []core.Value) {
			th.SendReturn(s, 0, self.ID, args...)
		})
	}
}

// MsgSend is objc_msgSend: dynamic dispatch with interposition.
func (rt *Runtime) MsgSend(self *Object, selector string, args ...core.Value) core.Value {
	rt.MsgCount++
	if rt.Mode != NoTracing {
		// The tracing-enabled runtime consults the global table before
		// calling any method.
		if h := rt.hooks[selector]; h != nil {
			h(self, selector, args)
		}
	}
	m := self.Class.lookup(selector)
	if m == nil {
		panic(fmt.Sprintf("objc: %s does not respond to %q", self.Class.Name, selector))
	}
	ret := m(rt, self, args...)
	if rt.Mode != NoTracing {
		if h := rt.retHooks[selector]; h != nil {
			h(self, selector, args)
		}
	}
	return ret
}
