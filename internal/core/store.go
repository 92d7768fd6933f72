package core

import (
	"fmt"
	"runtime"
	"slices"
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

// StoreOpts configures a Store.
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
	// handlerPanicLimit quarantines the notification handler after this
	// many recovered panics (0 = DefaultHandlerPanicLimit). Only tests
	// lower it.
	handlerPanicLimit int
	// AllocFail, when non-nil, is consulted before every instance-slot
	// allocation; returning true forces the allocation to fail as if the
	// class's block were exhausted. It is the fault-injection seam used
	// by internal/faultinject; it runs under store locks and must not
	// call back into the store.
	AllocFail func(cls *Class) bool
}

// Store manages automata instances for one context. Every class lives in
// one record (classState) whichever the context; the context picks only how
// an event reaches the record's instances: a PerThread store walks the
// block without locks (update.go), a Global store plans lock stripes over
// hash-indexed shards (shard.go). The zero value is not usable; construct
// with NewStoreOpts.
type Store struct {
	// mu serialises the copy-on-write registrations.
	mu      sync.Mutex
	handler Handler
	// quiet marks a handler that discards everything (NopHandler, the
	// default): the event bodies then build no notifications (notes).
	quiet bool

	// nshards is the Global store's stripe count; 0 marks a PerThread
	// store, whose classes have no stripes.
	nshards int
	// tab is the registration snapshot, replaced copy-on-write under mu
	// so the event path reads it lock-free.
	tab atomic.Pointer[classTable]

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

// classTable is one registration snapshot: the classes by identity and in
// registration order.
type classTable struct {
	m     map[*Class]*classState
	order []*classState
}

// classState is one class's state in a store of either context: the
// preallocated instance block, its live count and birth clock, the
// supervision state, and — in a Global store only — the lock stripes with
// their hash indexes, the free-slot bitmap and the key-mask census
// (shard.go). A PerThread store's record has no stripes: the one thread
// that owns it scans the block.
type classState struct {
	cls *Class
	// insts is allocated once, at class registration, so that instance
	// bookkeeping never allocates on monitored code paths (§4.4.1: “In
	// the kernel we rely on preallocation to avoid dynamic allocation in
	// code paths that do not permit it”).
	insts []Instance
	live  atomic.Int32
	// birthClock stamps activations in creation order: event bodies
	// drive candidates in that order and EvictOldest evicts by it.
	birthClock atomic.Uint64

	// quarantined is the lock-free fast-path bit; quar, under quarMu,
	// holds the streak and suppression counts behind it.
	quarantined atomic.Bool
	quarMu      sync.Mutex
	quar        quarState
	// needsFlush defers the expunge of a class quarantined by an event
	// that held only some of its stripes: slots are cleared by the first
	// event that holds them all (lockSet escalates while the flag is
	// set). Until then the class is logically empty.
	needsFlush atomic.Bool
	health     classHealth

	// The striped layout (shard.go); empty in a PerThread store.
	shards []storeShard
	// free is the free-slot bitmap (bit set ⇒ slot free).
	free []atomic.Uint64
	// masks counts live instances per key mask, for lock planning.
	masks [1 << KeySize]atomic.Int32
}

// NewStoreOpts creates a store. A nil Handler discards notifications.
func NewStoreOpts(o StoreOpts) *Store {
	if o.Handler == nil {
		o.Handler = NopHandler{}
	}
	_, quiet := o.Handler.(NopHandler)
	s := &Store{handler: o.Handler, quiet: quiet}
	s.sv.init(o)
	s.tab.Store(&classTable{})
	if o.Context == Global {
		n := o.Shards
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		s.nshards = shardCount(n)
	}
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

// Register adds a class to the store, preallocating its instance block, in
// a new registration snapshot. Registering the same class twice is a no-op.
func (s *Store) Register(cls *Class) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.tab.Load()
	if _, ok := old.m[cls]; ok {
		return
	}
	c := &classState{cls: cls, insts: make([]Instance, cls.limit())}
	c.initStripes(s.nshards)
	nt := &classTable{
		m:     make(map[*Class]*classState, len(old.m)+1),
		order: append(slices.Clip(old.order), c),
	}
	for k, v := range old.m {
		nt.m[k] = v
	}
	nt.m[cls] = c
	s.tab.Store(nt)
}

// classOf resolves a class against the current registration snapshot.
func (s *Store) classOf(cls *Class) *classState {
	return s.tab.Load().m[cls]
}

// classFor is classOf with implicit registration, which keeps one-off uses
// simple; hot paths Register up front so the branch never runs.
func (s *Store) classFor(cls *Class) *classState {
	c := s.classOf(cls)
	if c == nil {
		s.Register(cls)
		c = s.classOf(cls)
	}
	return c
}

// Instances returns a snapshot of the live instances of cls in slot order,
// for introspection. The returned values are copies: later events mutate
// the store's preallocated slots in place, and a snapshot that aliased them
// would change under the caller mid-inspection.
func (s *Store) Instances(cls *Class) []Instance {
	c := s.classOf(cls)
	if c == nil || c.outOfService() {
		return nil
	}
	c.lock(c.allMask())
	defer c.unlock(c.allMask())
	var out []Instance
	for i := range c.insts {
		if c.insts[i].Active {
			out = append(out, c.insts[i])
		}
	}
	return out
}

// outOfService reports whether the class is logically empty: quarantined,
// or re-armed with its expunge still deferred.
func (c *classState) outOfService() bool {
	return c.quarantined.Load() || c.needsFlush.Load()
}

func (c *classState) liveCount() int {
	if c.outOfService() {
		return 0
	}
	return int(c.live.Load())
}

// alloc finds the lowest free slot, or -1 when the block is full. The live
// count moves only when activate fills the slot, so a slot found and then
// abandoned leaks nothing.
func (c *classState) alloc() int32 {
	if c.shards != nil {
		return c.allocSlot()
	}
	for i := range c.insts {
		if !c.insts[i].Active {
			return int32(i)
		}
	}
	return -1
}

// activate fills slot with a new instance. In a striped class the key's
// stripe lock must be held.
func (c *classState) activate(slot int32, state uint32, k Key) *Instance {
	inst := &c.insts[slot]
	*inst = Instance{State: state, Key: k, Active: true, birth: c.birthClock.Add(1)}
	if c.shards != nil {
		c.index(slot)
	}
	c.live.Add(1)
	return inst
}

// deactivate ends the instance in slot. In a striped class the key's stripe
// lock must be held.
func (c *classState) deactivate(slot int32) {
	c.live.Add(-1)
	if c.shards != nil {
		c.unindex(slot)
		return
	}
	c.insts[slot].Active = false
}

// expunge ends every instance. In a striped class every stripe lock must be
// held.
func (c *classState) expunge() {
	for i := range c.insts {
		c.insts[i].Active = false
	}
	c.live.Store(0)
	if c.shards != nil {
		c.clearStripes()
	}
}

// find returns the slot of the live instance keyed exactly k, or -1. In a
// striped class the key's stripe lock must be held.
func (c *classState) find(k Key) int32 {
	if c.shards != nil {
		return c.findIn(&c.shards[c.shardOf(k)], k)
	}
	for i, n := 0, c.live.Load(); i < len(c.insts) && n > 0; i++ {
		if c.insts[i].Active {
			if c.insts[i].Key == k {
				return int32(i)
			}
			n--
		}
	}
	return -1
}
