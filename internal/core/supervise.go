package core

import (
	"fmt"
	"sync/atomic"
)

// This file is the store's supervision layer: the configurable failure-mode
// spectrum of §4.4, plus the isolation machinery that keeps the *monitored*
// system alive when the *monitor* misbehaves. The policy is one per store,
// set through StoreOpts; classes carry none of their own.
//
//   - FailureAction reproduces the paper's panic / printf / DTrace-probe
//     spectrum (§4.4.2): stop the program, or report and continue (a
//     probe is a Handler).
//   - OverflowPolicy governs instance-table exhaustion (§4.4.1 prescribes
//     reporting overflow rather than allocating in constrained paths):
//     drop the new instance, evict the oldest, or quarantine a class that
//     keeps overflowing so one hot automaton cannot poison the rest.
//   - Handler notifications are buffered during the store's critical
//     section and dispatched after every lock is released, with panics
//     recovered, counted and — past a limit — the handler quarantined. A
//     re-entrant or slow handler can therefore no longer stall monitored
//     threads or kill the program.
//   - Health counters account for every degradation decision per class, so
//     a degraded monitor is observable instead of a silent lie.

// FailureAction selects what a violation does to the monitored program
// (§4.4.2: kernel panic / fail-stop versus best-effort printf or
// DTrace-probe reporting). As in the paper, it is one choice for the whole
// store.
type FailureAction int

const (
	// FailReport notifies the handler and continues: the paper's
	// best-effort printf/DTrace modes. It is the zero value.
	FailReport FailureAction = iota
	// FailStop returns the violation as an error from UpdateStatePlan, the
	// paper's kernel-panic/abort mode; the instrumented program is
	// expected to stop on it.
	FailStop
)

func (a FailureAction) String() string {
	switch a {
	case FailReport:
		return "report"
	case FailStop:
		return "stop"
	default:
		return "FailureAction(?)"
	}
}

// OverflowPolicy selects how a class degrades when its preallocated
// instance block is exhausted.
type OverflowPolicy int

const (
	// DropNew reports the overflow and drops the new instance — the
	// paper's behaviour: preallocation is adjusted on the next run. It is
	// the zero value.
	DropNew OverflowPolicy = iota
	// EvictOldest reports the overflow, evicts the oldest live instance
	// with the same key mask as the newcomer (falling back to the oldest
	// overall) and claims its slot. Monitoring stays live for recent
	// bindings at the cost of forgetting the oldest obligation (accounted
	// in Health); the same-mask preference keeps unkeyed parent
	// instances — the clone sources — alive as long as possible.
	EvictOldest
	// QuarantineClass drops new instances like DropNew but, after
	// QuarantineAfter consecutive overflows, takes the whole class out of
	// service: instances are expunged and events are suppressed (and
	// counted) until RearmEvents suppressed events re-arm it.
	QuarantineClass
)

func (p OverflowPolicy) String() string {
	switch p {
	case DropNew:
		return "drop-new"
	case EvictOldest:
		return "evict-oldest"
	case QuarantineClass:
		return "quarantine"
	default:
		return "OverflowPolicy(?)"
	}
}

// ParseFailureAction maps the String spellings back onto actions, for CLI
// flags.
func ParseFailureAction(s string) (FailureAction, error) {
	for _, a := range []FailureAction{FailReport, FailStop} {
		if s == a.String() {
			return a, nil
		}
	}
	return FailReport, fmt.Errorf("unknown failure action %q (want report or stop)", s)
}

// ParseOverflowPolicy maps the String spellings back onto policies, for CLI
// flags.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	for _, p := range []OverflowPolicy{DropNew, EvictOldest, QuarantineClass} {
		if s == p.String() {
			return p, nil
		}
	}
	return DropNew, fmt.Errorf("unknown overflow policy %q (want drop-new, evict-oldest or quarantine)", s)
}

// Defaults for the supervision knobs a store leaves unset.
const (
	// DefaultQuarantineAfter is the consecutive-overflow threshold that
	// trips QuarantineClass.
	DefaultQuarantineAfter = 8
	// DefaultRearmEvents is how many suppressed events re-arm a
	// quarantined class.
	DefaultRearmEvents = 256
	// DefaultHandlerPanicLimit is how many recovered handler panics
	// quarantine the handler.
	DefaultHandlerPanicLimit = 3
)

// Health is one class's cumulative degradation accounting in one store.
// Counters only ever grow; Reset and re-arms do not clear them.
type Health struct {
	// Violations is the number of detected assertion violations.
	Violations uint64
	// Overflows counts instance allocations that found no free slot
	// (including those subsequently satisfied by eviction).
	Overflows uint64
	// Evictions counts live instances evicted by EvictOldest.
	Evictions uint64
	// Suppressed counts events ignored while the class was quarantined.
	Suppressed uint64
	// Quarantines counts times the class entered quarantine.
	Quarantines uint64
	// HandlerPanics counts recovered handler panics while dispatching
	// this class's notifications.
	HandlerPanics uint64
}

// Degraded reports whether any monitor-side degradation was recorded.
func (h Health) Degraded() bool {
	return h.Overflows|h.Evictions|h.Suppressed|h.Quarantines|h.HandlerPanics != 0
}

// Merge adds o's counters into h. It is how health accounting rolls up
// across stores within a monitor, and across monitors within a fleet
// aggregation service.
func (h *Health) Merge(o Health) {
	h.Violations += o.Violations
	h.Overflows += o.Overflows
	h.Evictions += o.Evictions
	h.Suppressed += o.Suppressed
	h.Quarantines += o.Quarantines
	h.HandlerPanics += o.HandlerPanics
}

// ClassHealth is one class's health snapshot, as reported by a store or
// merged across stores by the monitor.
type ClassHealth struct {
	Class string
	// Quarantined reports whether the class is currently out of service.
	Quarantined bool
	// Live is the class's live-instance count at snapshot time.
	Live int
	Health
}

// supervision is a store's supervision policy, resolved once at
// construction: every class in the store degrades under it, and both event
// bodies read these fields directly.
type supervision struct {
	failure         FailureAction
	overflow        OverflowPolicy
	quarantineAfter int
	rearmEvents     int
	panicLimit      int
	allocFail       func(cls *Class) bool
}

func (sv *supervision) init(o StoreOpts) {
	sv.failure = o.Failure
	sv.overflow = o.Overflow
	sv.quarantineAfter = o.QuarantineAfter
	if sv.quarantineAfter <= 0 {
		sv.quarantineAfter = DefaultQuarantineAfter
	}
	sv.rearmEvents = o.RearmEvents
	if sv.rearmEvents <= 0 {
		sv.rearmEvents = DefaultRearmEvents
	}
	sv.panicLimit = o.handlerPanicLimit
	if sv.panicLimit <= 0 {
		sv.panicLimit = DefaultHandlerPanicLimit
	}
	sv.allocFail = o.AllocFail
}

// quarState is a class's quarantine bookkeeping, guarded by
// classState.quarMu.
type quarState struct {
	// streak counts consecutive overflows since the last successful
	// allocation, reset or re-arm.
	streak int
	// suppressed counts events ignored since quarantine entry (the
	// re-arm trigger; Health.Suppressed is the cumulative total).
	suppressed int
}

// classHealth is a class's Health, counted atomically so that a report can
// read it while events run.
type classHealth struct {
	violations  atomic.Uint64
	overflows   atomic.Uint64
	evictions   atomic.Uint64
	suppressed  atomic.Uint64
	quarantines atomic.Uint64
}

func (ch *classHealth) snapshot() Health {
	return Health{
		Violations:  ch.violations.Load(),
		Overflows:   ch.overflows.Load(),
		Evictions:   ch.evictions.Load(),
		Suppressed:  ch.suppressed.Load(),
		Quarantines: ch.quarantines.Load(),
	}
}

// ---------------------------------------------------------------------------
// The degradation decisions. Both event bodies reach a quarantined class, a
// violation or an overflow only through quarGate, fail and claim below.

// quarGate runs the quarantine fast path for one event: re-arm when due (so
// the event that brings the class back is itself processed normally),
// otherwise count the suppression and report true so the caller skips the
// event. Safe both before any stripe lock (a run's head op) and while
// holding a run's stripes — quarMu only ever nests inside stripe locks.
func (s *Store) quarGate(c *classState, nb *noteBuf) bool {
	return c.quarantined.Load() && s.suppress(c, nb)
}

// suppress is quarGate's path for a quarantined class.
func (s *Store) suppress(c *classState, nb *noteBuf) bool {
	c.quarMu.Lock()
	defer c.quarMu.Unlock()
	switch {
	case !c.quarantined.Load():
		// Re-armed by a concurrent event; proceed.
		return false
	case c.quar.suppressed >= s.sv.rearmEvents:
		c.quar = quarState{}
		c.quarantined.Store(false)
		if nb != nil {
			nb.add(note{kind: noteQuarantine, cls: c.cls, on: false})
		}
		return false
	}
	c.quar.suppressed++
	c.health.suppressed.Add(1)
	return true
}

// fail records one violation: counted, reported, and under FailStop the
// event's error unless an earlier outcome of the same event already is.
func (s *Store) fail(c *classState, nb *noteBuf, firstErr *error, v *Violation) {
	c.health.violations.Add(1)
	if nb != nil {
		nb.add(note{kind: noteFail, cls: c.cls, v: v})
	}
	if s.sv.failure == FailStop && *firstErr == nil {
		*firstErr = v
	}
}

// claim claims an instance slot for a new instance keyed k under the
// store's overflow policy, or returns -1 when the instance must be dropped.
// It consults the fault injector before the block; on overflow it records
// one Overflow, then degrades: DropNew drops, EvictOldest evicts a victim
// and retries once (consulting the injector again; a second failure drops
// silently), QuarantineClass counts the streak and past the threshold takes
// the class out of service. A successful claim ends the streak. set is the
// stripe set the caller holds.
func (s *Store) claim(c *classState, nb *noteBuf, firstErr *error, set uint64, k Key) int32 {
	if c.quarantined.Load() {
		// Entered quarantine earlier in this same event (or
		// concurrently); no further allocation.
		return -1
	}
	slot := s.tryAlloc(c)
	if slot < 0 {
		c.health.overflows.Add(1)
		if nb != nil {
			nb.add(note{kind: noteOverflow, cls: c.cls, key: k})
		}
		switch s.sv.overflow {
		case EvictOldest:
			if set != c.allMask() {
				// Concurrent events consumed the free headroom
				// the event's plan justified a partial lock set
				// with; the victim scan would touch unowned
				// stripes. Degrade this one allocation to drop-new
				// (the overflow is already counted). Sequentially
				// this cannot happen: plan takes every stripe
				// whenever the event alone could exhaust the block
				// or an injector is armed.
				break
			}
			if v := c.victim(k.Mask); v >= 0 {
				ev := c.insts[v]
				c.deactivate(v)
				c.health.evictions.Add(1)
				if nb != nil {
					nb.add(note{kind: noteEvict, cls: c.cls, inst: ev})
				}
				slot = s.tryAlloc(c)
			}
		case QuarantineClass:
			c.quarMu.Lock()
			c.quar.streak++
			if c.quar.streak >= s.sv.quarantineAfter {
				c.quar = quarState{}
				c.quarantined.Store(true)
				c.health.quarantines.Add(1)
				if nb != nil {
					nb.add(note{kind: noteQuarantine, cls: c.cls, on: true})
				}
				// Expunge now if this event holds every stripe;
				// otherwise the next event that does flushes.
				if set == c.allMask() {
					c.expunge()
				} else {
					c.needsFlush.Store(true)
				}
			}
			c.quarMu.Unlock()
		}
	}
	if slot < 0 {
		if s.sv.failure == FailStop && *firstErr == nil {
			*firstErr = ErrOverflow
		}
		return -1
	}
	if s.sv.overflow == QuarantineClass {
		c.quarMu.Lock()
		c.quar.streak = 0
		c.quarMu.Unlock()
	}
	return slot
}

// tryAlloc consults the fault injector, then the block: -1 means the
// allocation failed either way.
func (s *Store) tryAlloc(c *classState) int32 {
	if s.sv.allocFail != nil && s.sv.allocFail(c.cls) {
		return -1
	}
	return c.alloc()
}

// victim picks EvictOldest's victim for a newcomer with key mask m: the
// oldest live instance bound like the newcomer, else the oldest overall, or
// -1 in an empty class. A plain class-wide minimum would sacrifice the
// unkeyed parent first (it is the oldest by construction), killing the
// clone source for every later binding in the bound. The caller holds
// every stripe.
func (c *classState) victim(m uint32) int32 {
	same, oldest := int32(-1), int32(-1)
	for i := range c.insts {
		in := &c.insts[i]
		if !in.Active {
			continue
		}
		if oldest < 0 || in.birth < c.insts[oldest].birth {
			oldest = int32(i)
		}
		if in.Key.Mask == m && (same < 0 || in.birth < c.insts[same].birth) {
			same = int32(i)
		}
	}
	if same >= 0 {
		return same
	}
	return oldest
}

// ---------------------------------------------------------------------------
// Buffered notification dispatch.

// noteKind tags one buffered handler notification.
type noteKind uint8

const (
	noteNew noteKind = iota
	noteClone
	noteTransition
	noteAccept
	noteFail
	noteOverflow
	noteEvict
	noteQuarantine
)

// note is one handler notification, captured by value while the store's
// locks are held and dispatched afterwards. Instances are copied: once the
// locks are released the originating slots may be reused.
type note struct {
	kind   noteKind
	cls    *Class
	inst   Instance
	parent Instance
	from   uint32
	to     uint32
	symbol string
	v      *Violation
	key    Key
	on     bool // noteQuarantine: entering (true) or re-armed (false)
}

// noteBufSize is the inline capacity of a noteBuf. One event rarely
// produces more notifications than it has candidate instances, so the
// common case stays on the stack; pathological events spill to the heap.
const noteBufSize = 24

// noteBuf accumulates an event's notifications. The zero value is ready.
type noteBuf struct {
	arr   [noteBufSize]note
	n     int
	spill []note
}

func (nb *noteBuf) add(n note) {
	if nb.n < len(nb.arr) {
		nb.arr[nb.n] = n
		nb.n++
		return
	}
	nb.spill = append(nb.spill, n)
}

func (nb *noteBuf) empty() bool { return nb.n == 0 && len(nb.spill) == 0 }

// noteSpillKeep caps the spill capacity, in notes, that a recycled noteBuf
// keeps across uses: a steady batch size reuses its spill, but one burst
// must not pin its peak on the free list.
const noteSpillKeep = 1024

// reset clears the used prefix and spill — dropping class/violation
// references so a recycled buffer cannot pin them — and empties nb, keeping
// the spill's capacity up to noteSpillKeep.
func (nb *noteBuf) reset() {
	for i := 0; i < nb.n; i++ {
		nb.arr[i] = note{}
	}
	nb.n = 0
	if cap(nb.spill) > noteSpillKeep {
		nb.spill = nil
		return
	}
	clear(nb.spill)
	nb.spill = nb.spill[:0]
}

// notes returns a notification buffer from the store's free list, or nil
// when the store's handler is the no-op: nothing listens, so the event
// bodies build no notes, and every note site checks for nil first. Health
// counters, violations and fail-stop errors do not depend on notes.
func (s *Store) notes() *noteBuf {
	if s.quiet {
		return nil
	}
	select {
	case nb := <-s.noteFree:
		return nb
	default:
		return new(noteBuf)
	}
}

// release dispatches the buffered notes and returns the buffer to the free
// list; a nil buffer (a quiet store's) has nothing to release. Reuse is safe
// because a handler gets each note by a pointer valid only for the callback.
func (s *Store) release(nb *noteBuf) {
	if nb == nil {
		return
	}
	s.dispatch(nb)
	nb.reset()
	select {
	case s.noteFree <- nb:
	default:
	}
}

// dispatch delivers the buffered notifications to the store's handler,
// outside any store lock, recovering panics. Each recovered panic is
// counted against the note's class; past the store's panic limit the
// handler is quarantined and later notifications are dropped (counted in
// NotesDropped).
func (s *Store) dispatch(nb *noteBuf) {
	if nb.empty() {
		return
	}
	h := s.handler
	for i := 0; i < nb.n; i++ {
		s.deliverNote(h, &nb.arr[i])
	}
	for i := range nb.spill {
		s.deliverNote(h, &nb.spill[i])
	}
}

func (s *Store) deliverNote(h Handler, n *note) {
	if s.hquar.Load() {
		s.notesDropped.Add(1)
		return
	}
	s.notify(h, n)
}

// notify invokes one handler method under panic isolation.
func (s *Store) notify(h Handler, n *note) {
	defer s.recoverHandler(n.cls)
	switch n.kind {
	case noteNew:
		h.InstanceNew(n.cls, &n.inst)
	case noteClone:
		h.InstanceClone(n.cls, &n.parent, &n.inst)
	case noteTransition:
		h.Transition(n.cls, &n.inst, n.from, n.to, n.symbol)
	case noteAccept:
		h.Accept(n.cls, &n.inst)
	case noteFail:
		h.Fail(n.v)
	case noteOverflow:
		h.Overflow(n.cls, n.key)
	case noteEvict:
		h.Evict(n.cls, &n.inst)
	case noteQuarantine:
		h.Quarantine(n.cls, n.on)
	}
}

// recoverHandler absorbs a handler panic: count it store-wide and per
// class, and quarantine the handler once the limit is reached.
func (s *Store) recoverHandler(cls *Class) {
	if r := recover(); r != nil {
		s.panicMu.Lock()
		if s.panicBy == nil {
			s.panicBy = make(map[string]uint64)
		}
		s.panicBy[cls.Name]++
		s.panicMu.Unlock()
		if int(s.hpanics.Add(1)) >= s.sv.panicLimit {
			s.hquar.Store(true)
		}
	}
}

// handlerPanicsFor returns the per-class recovered-panic count.
func (s *Store) handlerPanicsFor(class string) uint64 {
	s.panicMu.Lock()
	defer s.panicMu.Unlock()
	return s.panicBy[class]
}

// HealthReport snapshots every registered class's health, in registration
// order.
func (s *Store) HealthReport() []ClassHealth {
	var out []ClassHealth
	for _, c := range s.tab.Load().order {
		ch := ClassHealth{
			Class:       c.cls.Name,
			Quarantined: c.quarantined.Load(),
			Live:        c.liveCount(),
			Health:      c.health.snapshot(),
		}
		ch.HandlerPanics = s.handlerPanicsFor(c.cls.Name)
		out = append(out, ch)
	}
	return out
}
