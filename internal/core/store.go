package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Context selects where automata state lives (§3.2). In the thread-local
// context event serialisation is implicit and the store needs no locking;
// the global context serialises events across threads with an explicit lock,
// committing to an event order corresponding to an actual program behaviour.
type Context int

const (
	// PerThread stores automata state per thread; no synchronisation.
	PerThread Context = iota
	// Global shares one store across threads behind a lock.
	Global
)

func (c Context) String() string {
	switch c {
	case PerThread:
		return "per-thread"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("Context(%d)", int(c))
	}
}

// classState holds a class's preallocated instance block within a per-thread
// store: a plain slot array scanned linearly, touched by one thread only and
// therefore never locked (see shard.go for the global store's lock-striped
// layout).
type classState struct {
	cls *Class
	// insts is allocated once, at class registration, so that instance
	// bookkeeping never allocates on monitored code paths (§4.4.1: “In
	// the kernel we rely on preallocation to avoid dynamic allocation in
	// code paths that do not permit it”).
	insts []Instance
	live  int

	// quar and health are the class's degradation state and accounting
	// under the store's supervision policy.
	quar        quarState
	quarantined bool
	health      Health
	// birthClock stamps activations so EvictOldest picks the same victim
	// as the striped store.
	birthClock uint64
}

// StoreOpts configures a Store beyond what NewStore exposes.
type StoreOpts struct {
	// Context selects per-thread or global state (§3.2).
	Context Context
	// Handler receives lifecycle notifications; nil discards them.
	Handler Handler
	// Shards is the Global store's lock-stripe count, rounded up to a
	// power of two and capped at 64; 0 sizes it to GOMAXPROCS. PerThread
	// stores take no locks and ignore it.
	Shards int

	// Failure is what a violation of any class does (FailReport, the
	// zero value, or FailStop).
	Failure FailureAction
	// Overflow is every class's instance-table degradation policy
	// (DropNew, the zero value, EvictOldest or QuarantineClass).
	Overflow OverflowPolicy
	// QuarantineAfter is the consecutive-overflow count that trips
	// QuarantineClass (0 = DefaultQuarantineAfter); RearmEvents re-arms a
	// quarantined class after this many suppressed events (0 =
	// DefaultRearmEvents).
	QuarantineAfter int
	RearmEvents     int
	// HandlerPanicLimit quarantines the notification handler after this
	// many recovered panics (0 = DefaultHandlerPanicLimit).
	HandlerPanicLimit int
	// AllocFail, when non-nil, is consulted before every instance-slot
	// allocation; returning true forces the allocation to fail as if the
	// class's block were exhausted. It is the fault-injection seam used
	// by internal/faultinject; it runs under store locks and must not
	// call back into the store.
	AllocFail func(cls *Class) bool
}

// Store manages automata instances for one context. The context alone picks
// the layout: a PerThread store keeps each class in a lock-free slot array
// (classState, update.go), a Global store in lock-striped hash-indexed
// shards (shardedClass, shard.go). The zero value is not usable; construct
// with NewStore or NewStoreOpts.
type Store struct {
	// mu serialises the Global store's copy-on-write registrations.
	mu      sync.Mutex
	context Context
	handler Handler

	// nshards is the Global store's stripe count; 0 marks a PerThread
	// store, whose state lives in classes instead of stab.
	nshards int
	classes map[*Class]*classState
	// order preserves registration order for deterministic iteration.
	order []*classState
	stab  atomic.Pointer[shardTable]

	// sv is the resolved supervision configuration (supervise.go).
	sv supervision
	// Handler-isolation state: recovered panic count, quarantine flag,
	// dropped-notification count, and the per-class panic attribution.
	hpanics      atomic.Uint64
	hquar        atomic.Bool
	notesDropped atomic.Uint64
	panicMu      sync.Mutex
	panicBy      map[string]uint64
}

// shardTable is the registration snapshot of a sharded store, replaced
// copy-on-write under Store.mu so the event hot path can read it lock-free.
type shardTable struct {
	m     map[*Class]*shardedClass
	order []*shardedClass
}

// NewStore creates a store for the given context. handler may be nil, in
// which case notifications are discarded.
func NewStore(ctx Context, handler Handler) *Store {
	return NewStoreOpts(StoreOpts{Context: ctx, Handler: handler})
}

// NewStoreOpts creates a store from explicit options.
func NewStoreOpts(o StoreOpts) *Store {
	if o.Handler == nil {
		o.Handler = NopHandler{}
	}
	s := &Store{context: o.Context, handler: o.Handler}
	s.sv.init(o)
	if o.Context != Global {
		s.classes = make(map[*Class]*classState)
		return s
	}
	n := o.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.nshards = shardCount(n)
	s.stab.Store(&shardTable{})
	return s
}

// shardCount clamps and rounds a shard request to a power of two.
func shardCount(n int) int {
	if n < 1 {
		n = 1
	}
	if n > maxStoreShards {
		n = maxStoreShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Context returns the store's context.
func (s *Store) Context() Context { return s.context }

// Shards returns the number of lock stripes: 0 for a PerThread store, which
// takes no locks.
func (s *Store) Shards() int { return s.nshards }

// Register adds a class to the store, preallocating its instance block.
// Registering the same class twice is a no-op.
func (s *Store) Register(cls *Class) {
	if s.nshards > 0 {
		s.registerSharded(cls, nil)
		return
	}
	if _, ok := s.classes[cls]; ok {
		return
	}
	cs := &classState{
		cls:   cls,
		insts: make([]Instance, cls.limit()),
	}
	s.classes[cls] = cs
	s.order = append(s.order, cs)
}

// RegisterWithStorage registers cls using caller-supplied instance storage
// instead of allocating its own — the §7 extension ("performance
// improvements could be gained by allowing users to delegate space within
// data structures of the instrumented program; this would naturally lead to
// per-object assertions, allowing assertions to be more easily tied to an
// object's lifetime"). The slice's length is the class's instance limit for
// this store; the caller must not touch it while the class is registered.
// Re-registering a class replaces its storage and expunges live instances.
func (s *Store) RegisterWithStorage(cls *Class, storage []Instance) {
	if len(storage) == 0 {
		s.Register(cls)
		return
	}
	for i := range storage {
		storage[i] = Instance{}
	}
	if s.nshards > 0 {
		s.registerSharded(cls, storage)
		return
	}
	if cs, ok := s.classes[cls]; ok {
		// Replacing storage resets the class wholesale, like the sharded
		// store's re-registration: supervision state starts over too.
		cs.insts = storage
		cs.live = 0
		cs.clearQuarantine()
		cs.health = Health{}
		cs.birthClock = 0
		return
	}
	cs := &classState{cls: cls, insts: storage}
	s.classes[cls] = cs
	s.order = append(s.order, cs)
}

// Registered reports whether cls has been registered.
func (s *Store) Registered(cls *Class) bool {
	if s.nshards > 0 {
		return s.shardedClassOf(cls) != nil
	}
	_, ok := s.classes[cls]
	return ok
}

// Classes returns registered classes in registration order.
func (s *Store) Classes() []*Class {
	if s.nshards > 0 {
		t := s.stab.Load()
		out := make([]*Class, len(t.order))
		for i, sc := range t.order {
			out[i] = sc.cls
		}
		return out
	}
	out := make([]*Class, len(s.order))
	for i, cs := range s.order {
		out[i] = cs.cls
	}
	return out
}

// Instances returns a snapshot of the live instances of cls, primarily for
// introspection and tests. The returned values are copies: later UpdateState
// calls mutate the store's preallocated slots in place, and a snapshot that
// aliased them would change under the caller mid-inspection.
func (s *Store) Instances(cls *Class) []Instance {
	if s.nshards > 0 {
		return s.instancesSharded(cls)
	}
	cs := s.classes[cls]
	if cs == nil || cs.quarantined {
		return nil
	}
	var out []Instance
	for i := range cs.insts {
		if cs.insts[i].Active {
			inst := cs.insts[i] // copy, not alias: the slot is reused
			out = append(out, inst)
		}
	}
	return out
}

// LiveCount returns the number of active instances of cls.
func (s *Store) LiveCount(cls *Class) int {
	if s.nshards > 0 {
		sc := s.shardedClassOf(cls)
		if sc == nil || sc.quarantined.Load() || sc.needsFlush.Load() {
			return 0
		}
		return int(sc.live.Load())
	}
	cs := s.classes[cls]
	if cs == nil || cs.quarantined {
		return 0
	}
	return cs.live
}

// Reset expunges all instances of every class, as after a cleanup event.
// Quarantined classes are silently returned to service.
func (s *Store) Reset() {
	if s.nshards > 0 {
		t := s.stab.Load()
		for _, sc := range t.order {
			s.lockShards(sc, sc.allMask())
			sc.expungeLocked()
			sc.clearQuarantine()
			s.unlockShards(sc, sc.allMask())
		}
		return
	}
	for _, cs := range s.order {
		cs.expunge()
		cs.clearQuarantine()
	}
}

// ResetClass expunges all instances of one class and lifts any quarantine.
func (s *Store) ResetClass(cls *Class) {
	if s.nshards > 0 {
		if sc := s.shardedClassOf(cls); sc != nil {
			s.lockShards(sc, sc.allMask())
			sc.expungeLocked()
			sc.clearQuarantine()
			s.unlockShards(sc, sc.allMask())
		}
		return
	}
	if cs := s.classes[cls]; cs != nil {
		cs.expunge()
		cs.clearQuarantine()
	}
}

func (cs *classState) expunge() {
	for i := range cs.insts {
		cs.insts[i].Active = false
	}
	cs.live = 0
}

// clearQuarantine silently resets quarantine state (Reset/ResetClass and
// storage replacement).
func (cs *classState) clearQuarantine() {
	cs.quar = quarState{}
	cs.quarantined = false
}

// findExact returns the active instance with exactly the given key, or nil.
// The scan stops once every live instance has been seen.
func (cs *classState) findExact(key Key) *Instance {
	seen := 0
	for i := range cs.insts {
		if !cs.insts[i].Active {
			continue
		}
		if cs.insts[i].Key == key {
			return &cs.insts[i]
		}
		if seen++; seen >= cs.live {
			break
		}
	}
	return nil
}

// alloc claims a free preallocated slot, or returns nil on overflow. The
// live count is left untouched until the caller commits the slot: an error
// path between alloc and activation must not leak the count.
func (cs *classState) alloc() *Instance {
	for i := range cs.insts {
		if !cs.insts[i].Active {
			return &cs.insts[i]
		}
	}
	return nil
}

// commit accounts a slot claimed by alloc once it is activated.
func (cs *classState) commit() {
	cs.live++
}
