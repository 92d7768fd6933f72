package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The sharded store partitions each class's preallocated instance block into
// lock stripes selected by Key hash, so that global-context events for
// unrelated keys proceed in parallel instead of serialising on one mutex
// (§3.2's explicit lock, whose cost figure 12 measures). Three structures
// replace the per-thread store's linear scans:
//
//   - a per-shard open-addressed hash index mapping an instance key to its
//     slot in the block (linear probing, backward-shift deletion). Tables
//     are sized to twice the class limit so the load factor never exceeds
//     one half even if every instance hashes to one shard;
//   - a class-wide free-slot bitmap allocated lowest-slot-first, replacing
//     the O(n) alloc scan with an O(n/64) word scan. First-fit keeps the
//     slot numbering — and so Instances order — identical to the
//     per-thread store's. Capacity semantics are unchanged: overflow
//     happens exactly when the class's whole block is live;
//   - atomics for the per-class live count and a census of live instances
//     per key mask, which drives lock planning below.
//
// Lock planning: an event with key E must reach every live instance whose
// key is compatible with E. A compatible instance whose mask is a subset of
// E's mask is *exactly* E projected onto that mask, so it is found with one
// hash lookup in one computable shard. The mask census says which masks are
// live: if all of them are subsets of E's mask, the event locks only the
// shards of those projections (plus clone/init targets, which are
// projections too); if any live instance binds a slot E does not, its shard
// cannot be computed and the event falls back to locking every stripe and
// scanning. Cross-shard operations — clone-from-ANY fallbacks, «cleanup»,
// Reset, Instances — take shard locks in ascending stripe order, so they
// cannot deadlock against each other or against single-shard events.
//
// The preallocation discipline of §4.4.1 is preserved: block, index tables
// and free-list links are all allocated at registration time; monitored
// paths allocate nothing.

// maxStoreShards bounds the stripe count so a lock set fits one uint64.
const maxStoreShards = 64

// keyMaskAll covers every representable key mask.
const keyMaskAll = 1<<KeySize - 1

// shardedClass is one class's state in a sharded store.
type shardedClass struct {
	cls   *Class
	limit int
	// insts is the class-wide preallocated block; shards own disjoint
	// subsets of its slots, tracked by their hash indexes.
	insts []Instance
	// free is the free-slot bitmap (bit set ⇒ slot free); allocSlot scans
	// it from word zero so slots are claimed lowest-first, matching the
	// per-thread allocator's first-fit scan.
	free []atomic.Uint64
	// live is the class-wide active-instance count.
	live atomic.Int32
	// masks counts live instances per key mask, for lock planning.
	masks [1 << KeySize]atomic.Int32

	shards []storeShard

	// quarantined mirrors the quarantine bit for the lock-free fast path;
	// quar holds the mutable quarantine bookkeeping under quarMu.
	quarantined atomic.Bool
	quarMu      sync.Mutex
	quar        quarState
	// needsFlush defers the physical expunge of a quarantined class:
	// quarantine entry happens under a partial stripe set, so slots are
	// cleared later, by the first event that holds every stripe (plan
	// escalates to allMask while the flag is set). Until then the class is
	// logically empty: introspection reports no instances.
	needsFlush atomic.Bool
	// health is the class's degradation accounting.
	health shardedHealth
	// birthClock stamps activations, mirroring the per-thread store's
	// counter so EvictOldest picks the same victim in both.
	birthClock atomic.Uint64
}

func (sc *shardedClass) healthSnapshot() Health { return sc.health.snapshot() }

// clearQuarantine silently resets quarantine state (Reset/ResetClass and
// storage replacement). Callers must hold every stripe lock or own the class
// exclusively, so the deferred flush cannot race the expunge they perform.
func (sc *shardedClass) clearQuarantine() {
	sc.quarMu.Lock()
	sc.quar = quarState{}
	sc.quarantined.Store(false)
	sc.needsFlush.Store(false)
	sc.quarMu.Unlock()
}

// storeShard is one lock stripe: a mutex and the hash index of the instances
// whose keys hash to this stripe.
type storeShard struct {
	mu sync.Mutex
	// table maps probe positions to slot+1; 0 is empty. Deletion
	// backward-shifts, so a probe may stop at the first empty entry.
	table []uint32
	_     [40]byte // keep neighbouring stripes off one cache line
}

func newShardedClass(cls *Class, storage []Instance, nshards int) *shardedClass {
	if storage == nil {
		storage = make([]Instance, cls.limit())
	}
	sc := &shardedClass{
		cls:    cls,
		limit:  len(storage),
		insts:  storage,
		free:   make([]atomic.Uint64, (len(storage)+63)/64),
		shards: make([]storeShard, nshards),
	}
	tsize := 8
	for tsize < 2*sc.limit {
		tsize <<= 1
	}
	for i := range sc.shards {
		sc.shards[i].table = make([]uint32, tsize)
	}
	sc.resetFreeList()
	return sc
}

// resetFreeList marks every slot free. Callers must hold every shard lock
// (or own the class exclusively, as at registration).
func (sc *shardedClass) resetFreeList() {
	for w := range sc.free {
		n := sc.limit - w*64
		if n >= 64 {
			sc.free[w].Store(^uint64(0))
		} else {
			sc.free[w].Store(1<<uint(n) - 1)
		}
	}
}

// hashKey mixes a key's mask and bound values; unbound slots are always zero
// by construction, so equal keys hash equally.
func hashKey(k Key) uint64 {
	h := uint64(k.Mask)*0x9E3779B97F4A7C15 + 0x85EBCA77C2B2AE63
	for i := 0; i < KeySize; i++ {
		if k.Mask&(1<<uint(i)) != 0 {
			h ^= uint64(k.Data[i]) + 0x9E3779B97F4A7C15 + h<<6 + h>>2
			h *= 0xC2B2AE3D27D4EB4F
		}
	}
	h ^= h >> 29
	return h
}

// shardOf picks the stripe for a key from the hash's high bits; probe
// positions use the low bits, so stripe and probe stay decorrelated.
func (sc *shardedClass) shardOf(k Key) int {
	return int(hashKey(k)>>48) & (len(sc.shards) - 1)
}

// allMask is the lock set covering every stripe.
func (sc *shardedClass) allMask() uint64 {
	return 1<<uint(len(sc.shards)) - 1
}

// lockShards acquires the stripes in set in ascending index order — the
// fixed lock order every cross-shard operation follows.
func (s *Store) lockShards(sc *shardedClass, set uint64) {
	for i := range sc.shards {
		if set&(1<<uint(i)) != 0 {
			sc.shards[i].mu.Lock()
		}
	}
}

func (s *Store) unlockShards(sc *shardedClass, set uint64) {
	for i := range sc.shards {
		if set&(1<<uint(i)) != 0 {
			sc.shards[i].mu.Unlock()
		}
	}
}

// allocSlot claims the lowest free slot, or returns -1 on overflow.
// Lock-free: events holding different stripe locks allocate concurrently,
// and sequentially the slot chosen is exactly the per-thread allocator's.
func (sc *shardedClass) allocSlot() int32 {
	for w := range sc.free {
		v := sc.free[w].Load()
		for v != 0 {
			b := uint(bits.TrailingZeros64(v))
			if sc.free[w].CompareAndSwap(v, v&^(1<<b)) {
				return int32(w*64) + int32(b)
			}
			v = sc.free[w].Load()
		}
	}
	return -1
}

// freeSlot returns a slot to the bitmap.
func (sc *shardedClass) freeSlot(slot int32) {
	w, bit := slot/64, uint64(1)<<uint(slot%64)
	for {
		v := sc.free[w].Load()
		if sc.free[w].CompareAndSwap(v, v|bit) {
			return
		}
	}
}

// findIn looks up the slot holding exactly key k in one stripe's index, or
// -1. The stripe lock must be held.
func (sc *shardedClass) findIn(sh *storeShard, k Key) int32 {
	mask := uint64(len(sh.table) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		e := sh.table[i]
		if e == 0 {
			return -1
		}
		if slot := int32(e - 1); sc.insts[slot].Key == k {
			return slot
		}
	}
}

// insertIn adds slot under its key to one stripe's index. The stripe lock
// must be held. The table never fills: its size is twice the class limit.
func (sc *shardedClass) insertIn(sh *storeShard, slot int32) {
	mask := uint64(len(sh.table) - 1)
	i := hashKey(sc.insts[slot].Key) & mask
	for sh.table[i] != 0 {
		i = (i + 1) & mask
	}
	sh.table[i] = uint32(slot) + 1
}

// removeIn deletes slot from one stripe's index with backward-shift
// deletion, so probes need no tombstones. The stripe lock must be held.
func (sc *shardedClass) removeIn(sh *storeShard, slot int32) {
	mask := uint64(len(sh.table) - 1)
	i := hashKey(sc.insts[slot].Key) & mask
	for {
		e := sh.table[i]
		if e == 0 {
			return // not present; nothing to shift
		}
		if int32(e-1) == slot {
			break
		}
		i = (i + 1) & mask
	}
	sh.table[i] = 0
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		e := sh.table[j]
		if e == 0 {
			return
		}
		home := hashKey(sc.insts[e-1].Key) & mask
		// The entry at j can fill the hole at i iff its home position
		// lies cyclically at or before i.
		if (j-home)&mask >= (j-i)&mask {
			sh.table[i] = e
			sh.table[j] = 0
			i = j
		}
	}
}

// activate claims slot for a new instance and indexes it. The key's stripe
// lock must be held.
func (sc *shardedClass) activate(slot int32, state uint32, k Key) *Instance {
	inst := &sc.insts[slot]
	*inst = Instance{State: state, Key: k, Active: true, birth: sc.birthClock.Add(1)}
	sc.insertIn(&sc.shards[sc.shardOf(k)], slot)
	sc.masks[k.Mask&keyMaskAll].Add(1)
	sc.live.Add(1)
	return inst
}

// deactivate unindexes slot and returns it to the free list. The key's
// stripe lock must be held.
func (sc *shardedClass) deactivate(slot int32) {
	inst := &sc.insts[slot]
	sc.removeIn(&sc.shards[sc.shardOf(inst.Key)], slot)
	sc.masks[inst.Key.Mask&keyMaskAll].Add(-1)
	sc.live.Add(-1)
	inst.Active = false
	sc.freeSlot(slot)
}

// expungeLocked clears every instance, index and counter and rebuilds the
// free list. Every shard lock must be held.
func (sc *shardedClass) expungeLocked() {
	for i := range sc.shards {
		t := sc.shards[i].table
		for j := range t {
			t[j] = 0
		}
	}
	for i := range sc.insts {
		sc.insts[i].Active = false
	}
	for m := range sc.masks {
		sc.masks[m].Store(0)
	}
	sc.live.Store(0)
	sc.resetFreeList()
}

// lockSet computes the stripes an event with this key and «init» transition
// needs: the shard of every live-mask projection of the key, the shard of
// the key itself (clone target) and of the «init» key. scan reports that
// some live instance binds a slot outside the event's mask, forcing the
// all-stripes fallback.
func (s *Store) lockSet(sc *shardedClass, key Key, init *Transition) (set uint64, scan bool) {
	// A pending quarantine flush needs exclusive ownership.
	if sc.needsFlush.Load() {
		return sc.allMask(), true
	}
	// EvictOldest's class-wide victim scan needs every stripe, but only
	// when this event could actually overflow. One event allocates at most
	// one clone per pre-event candidate plus one «init» — ≤ live+1 slots —
	// so with limit-live ≥ live+1 free slots it cannot exhaust the block
	// and normal planning applies. The headroom argument collapses when a
	// fault injector is armed (any allocation may fail), so then every
	// event takes the full set. Concurrent events can still eat the
	// headroom lockSet saw; the allocation path re-checks ownership and
	// degrades that rare overflow to drop-new rather than scan unowned
	// stripes.
	if s.sv.overflow == EvictOldest {
		live := int(sc.live.Load())
		if s.sv.allocFail != nil || sc.limit-live < live+1 {
			return sc.allMask(), true
		}
	}
	set = 1 << uint(sc.shardOf(key))
	if init != nil {
		set |= 1 << uint(sc.shardOf(key.project(init.KeyMask)))
	}
	for m := uint32(0); m <= keyMaskAll; m++ {
		if sc.masks[m].Load() == 0 {
			continue
		}
		if m&^key.Mask != 0 {
			return sc.allMask(), true
		}
		set |= 1 << uint(sc.shardOf(key.project(m)))
	}
	return set, false
}

// registerSharded adds or replaces a class in the sharded store. storage is
// nil to preallocate internally (Register) or the caller's block
// (RegisterWithStorage, which replaces and expunges on re-registration).
func (s *Store) registerSharded(cls *Class, storage []Instance) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.stab.Load()
	if _, ok := old.m[cls]; ok && storage == nil {
		return
	}
	nt := &shardTable{m: make(map[*Class]*shardedClass, len(old.m)+1)}
	for c, sc := range old.m {
		nt.m[c] = sc
	}
	sc := newShardedClass(cls, storage, s.nshards)
	replaced := false
	for _, prev := range old.order {
		if prev.cls == cls {
			nt.order = append(nt.order, sc)
			replaced = true
		} else {
			nt.order = append(nt.order, prev)
		}
	}
	if !replaced {
		nt.order = append(nt.order, sc)
	}
	nt.m[cls] = sc
	s.stab.Store(nt)
}

// shardedClassOf resolves a class against the current registration snapshot.
func (s *Store) shardedClassOf(cls *Class) *shardedClass {
	return s.stab.Load().m[cls]
}

// shardsOf is shardedClassOf with the implicit registration slotsOf
// performs for per-thread stores.
func (s *Store) shardsOf(cls *Class) *shardedClass {
	sc := s.shardedClassOf(cls)
	if sc == nil {
		s.Register(cls)
		sc = s.shardedClassOf(cls)
	}
	return sc
}

// instancesSharded snapshots the live instances of cls in slot order.
func (s *Store) instancesSharded(cls *Class) []Instance {
	sc := s.shardedClassOf(cls)
	if sc == nil || sc.quarantined.Load() || sc.needsFlush.Load() {
		// Quarantined (or re-armed but not yet flushed): logically empty.
		return nil
	}
	s.lockShards(sc, sc.allMask())
	defer s.unlockShards(sc, sc.allMask())
	var out []Instance
	for i := range sc.insts {
		if sc.insts[i].Active {
			inst := sc.insts[i] // copy, not alias: the slot is reused
			out = append(out, inst)
		}
	}
	return out
}

// shardCand is one pre-event live instance in the sharded candidate
// snapshot; the birth stamp detects slots evicted and reused mid-event.
type shardCand struct {
	slot  int32
	birth uint64
}

// shardedQuarGate runs the quarantine fast path for one event: re-arm when
// due (processing the event normally), otherwise count the suppression and
// report true so the caller skips the event. Safe both before any stripe lock
// (the single-event path) and while holding a batch run's stripes — quarMu
// only ever nests inside stripe locks.
func (s *Store) shardedQuarGate(sc *shardedClass, nb *noteBuf) bool {
	if !sc.quarantined.Load() {
		return false
	}
	sc.quarMu.Lock()
	switch {
	case !sc.quarantined.Load():
		// Re-armed by a concurrent event; proceed.
		sc.quarMu.Unlock()
	case sc.quar.suppressed >= s.sv.rearmEvents:
		sc.quar = quarState{}
		sc.quarantined.Store(false)
		nb.add(note{kind: noteQuarantine, cls: sc.cls, on: false})
		sc.quarMu.Unlock()
	default:
		sc.quar.suppressed++
		sc.health.suppressed.Add(1)
		sc.quarMu.Unlock()
		return true
	}
	return false
}

// shardedFail records one violation on the lock-striped store.
func (s *Store) shardedFail(sc *shardedClass, nb *noteBuf, failStop bool, firstErr *error, v *Violation) {
	sc.health.violations.Add(1)
	nb.add(note{kind: noteFail, cls: sc.cls, v: v})
	if failStop && *firstErr == nil {
		*firstErr = v
	}
}

// shardedClaim claims one instance slot under the store's overflow policy.
// It mirrors the per-thread store's slotClaim (update.go) decision for
// decision, including when the fault injector is consulted, so the
// differential harness sees identical degradation sequences. Returns the
// claimed slot or -1 to drop.
func (s *Store) shardedClaim(sc *shardedClass, nb *noteBuf, failStop bool, firstErr *error, set uint64, k Key) int32 {
	if sc.quarantined.Load() {
		// Entered quarantine earlier in this same event (or
		// concurrently); no further allocation.
		return -1
	}
	slot := int32(-1)
	if s.sv.allocFail == nil || !s.sv.allocFail(sc.cls) {
		slot = sc.allocSlot()
	}
	if slot < 0 {
		sc.health.overflows.Add(1)
		nb.add(note{kind: noteOverflow, cls: sc.cls, key: k})
		switch s.sv.overflow {
		case EvictOldest:
			if set != sc.allMask() {
				// Concurrent events consumed the free headroom
				// lockSet justified the partial lock set with; the
				// victim scan would touch unowned stripes. Degrade
				// this one allocation to drop-new (the overflow is
				// already counted above). Sequentially this cannot
				// happen: lockSet takes every stripe whenever the
				// event alone could exhaust the block or an
				// injector is armed.
				break
			}
			// The full lock set is held, so the class-wide scan and
			// deactivation are safe. Same victim rule as the
			// per-thread store: oldest same-mask instance first, so
			// the unkeyed parent (oldest by construction) is only
			// sacrificed when nothing bound like the newcomer lives.
			victim, anyVictim := int32(-1), int32(-1)
			for i := range sc.insts {
				if !sc.insts[i].Active {
					continue
				}
				if anyVictim < 0 || sc.insts[i].birth < sc.insts[anyVictim].birth {
					anyVictim = int32(i)
				}
				if sc.insts[i].Key.Mask == k.Mask && (victim < 0 || sc.insts[i].birth < sc.insts[victim].birth) {
					victim = int32(i)
				}
			}
			if victim < 0 {
				victim = anyVictim
			}
			if victim >= 0 {
				ev := sc.insts[victim]
				sc.deactivate(victim)
				sc.health.evictions.Add(1)
				nb.add(note{kind: noteEvict, cls: sc.cls, inst: ev})
				if s.sv.allocFail == nil || !s.sv.allocFail(sc.cls) {
					slot = sc.allocSlot()
				}
			}
		case QuarantineClass:
			sc.quarMu.Lock()
			sc.quar.streak++
			if sc.quar.streak >= s.sv.quarantineAfter {
				sc.quar = quarState{}
				sc.quarantined.Store(true)
				sc.needsFlush.Store(true)
				sc.health.quarantines.Add(1)
				nb.add(note{kind: noteQuarantine, cls: sc.cls, on: true})
			}
			sc.quarMu.Unlock()
		}
	}
	if slot < 0 {
		if failStop && *firstErr == nil {
			*firstErr = ErrOverflow
		}
		return -1
	}
	if s.sv.overflow == QuarantineClass {
		sc.quarMu.Lock()
		sc.quar.streak = 0
		sc.quarMu.Unlock()
	}
	return slot
}

// eventNeed is one event's full lock requirement: its stripe set, escalated
// to every stripe for cleanup events (which expunge the whole class).
func (s *Store) eventNeed(sc *shardedClass, p *SymbolPlan, key Key) (set uint64, scan bool) {
	set, scan = s.lockSet(sc, key, p.initTr())
	if p.cleanup {
		set = sc.allMask()
	}
	return set, scan
}

// lockCovering acquires set, then re-plans the event (p, key) under the
// locks and widens the set until it covers the event's need: another thread
// may have activated an instance whose mask widens it between planning and
// locking. It escalates to every stripe after one miss, so it terminates,
// and returns the held set and the event's scan flag.
func (s *Store) lockCovering(sc *shardedClass, set uint64, p *SymbolPlan, key Key) (uint64, bool) {
	for tries := 0; ; tries++ {
		s.lockShards(sc, set)
		need, scan := s.eventNeed(sc, p, key)
		if need&^set == 0 {
			return set, scan
		}
		s.unlockShards(sc, set)
		if tries >= 1 {
			set = sc.allMask()
		} else {
			set |= need
		}
	}
}

// updateSharded is the global event path: the quarantine gate, then the
// event's stripes, then the body.
func (s *Store) updateSharded(sc *shardedClass, p *SymbolPlan, key Key, nb *noteBuf) error {
	// Quarantine fast path, before any stripe lock. The re-arm check runs
	// before suppression so the event that brings the class back is itself
	// processed normally; the physical expunge stays deferred (needsFlush)
	// until the stripe locks are held.
	if s.shardedQuarGate(sc, nb) {
		return nil
	}
	set, _ := s.eventNeed(sc, p, key)
	set, scan := s.lockCovering(sc, set, p, key)
	defer s.unlockShards(sc, set)
	return s.applySharded(sc, p, key, nb, set, scan)
}

// applySharded is the global event body, shared by updateSharded and the
// batch run loop (batch.go): the §4.4.1 lifecycle over the striped index.
// The caller holds the stripe locks in set, which must cover the event's
// planned need; scan selects the all-stripes candidate walk.
func (s *Store) applySharded(sc *shardedClass, p *SymbolPlan, key Key, nb *noteBuf, set uint64, scan bool) error {
	if sc.needsFlush.Load() && set == sc.allMask() {
		// Deferred quarantine expunge: lockSet escalates to every stripe
		// while the flag is set, so the first event through after re-arm
		// lands here holding the full set. (A concurrent entry can raise
		// the flag after our plan — then this event proceeds as if
		// linearised before the quarantine and the next one flushes.)
		sc.expungeLocked()
		sc.needsFlush.Store(false)
	}

	var firstErr error
	failStop := s.sv.failure == FailStop

	// Collect the instances live before this event (so clones made below
	// are not driven by the same event), compatible with its key. With no
	// out-of-mask masks live, every compatible instance is a projection
	// of the key: a handful of O(1) index lookups replaces a scan over the
	// whole block.
	var candBuf [DefaultInstanceLimit]shardCand
	cand := candBuf[:0]
	if scan {
		for si := range sc.shards {
			for _, e := range sc.shards[si].table {
				if e == 0 {
					continue
				}
				if slot := int32(e - 1); compatible4(sc.insts[slot].Key, key) {
					cand = append(cand, shardCand{slot: slot, birth: sc.insts[slot].birth})
				}
			}
		}
	} else {
		for m := uint32(0); m <= keyMaskAll; m++ {
			if m&^key.Mask != 0 || sc.masks[m].Load() == 0 {
				continue
			}
			k := key.project(m)
			if slot := sc.findIn(&sc.shards[sc.shardOf(k)], k); slot >= 0 {
				cand = append(cand, shardCand{slot: slot, birth: sc.insts[slot].birth})
			}
		}
	}
	// Process in creation order, as the per-thread store does. Insertion
	// sort: candidate lists are short (≤ one per live mask off the scan
	// path) and sort.Slice would allocate on the monitored path.
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0 && cand[j].birth < cand[j-1].birth; j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}

	matched := false
	for _, c := range cand {
		if sc.quarantined.Load() {
			// The class went out of service mid-event; the per-thread
			// store's expunge leaves no candidate to process.
			break
		}
		inst := &sc.insts[c.slot]
		if !inst.Active || inst.birth != c.birth {
			// Evicted mid-event (the slot may already hold a new
			// occupant, which this event must not drive).
			continue
		}

		tr := p.find(inst.State)
		if tr == nil {
			switch {
			case p.cleanup:
				s.shardedFail(sc, nb, failStop, &firstErr, &Violation{Class: sc.cls, Kind: VerdictIncomplete, Key: inst.Key, State: inst.State, Symbol: p.Symbol})
			case p.Flags&SymStrict != 0:
				s.shardedFail(sc, nb, failStop, &firstErr, &Violation{Class: sc.cls, Kind: VerdictBadTransition, Key: inst.Key, State: inst.State, Symbol: p.Symbol})
				sc.deactivate(c.slot)
			}
			continue
		}

		if key.Mask&^inst.Key.Mask != 0 {
			// Clone. For in-plan parents the union is the event key
			// itself, whose stripe is locked; scan-mode parents run
			// under every stripe lock.
			newKey := union4(inst.Key, key)
			if sc.findIn(&sc.shards[sc.shardOf(newKey)], newKey) >= 0 {
				matched = true
				continue
			}
			// Copy the parent before allocating: eviction may free
			// and immediately reuse the parent's own slot.
			parent := *inst
			nslot := s.shardedClaim(sc, nb, failStop, &firstErr, set, newKey)
			if nslot < 0 {
				continue
			}
			clone := sc.activate(nslot, tr.To, newKey)
			nb.add(note{kind: noteClone, cls: sc.cls, parent: parent, inst: *clone})
			nb.add(note{kind: noteTransition, cls: sc.cls, inst: *clone, from: tr.From, to: tr.To, symbol: p.Symbol})
			matched = true
			if tr.Cleanup() {
				nb.add(note{kind: noteAccept, cls: sc.cls, inst: *clone})
			}
			continue
		}

		from := inst.State
		inst.State = tr.To
		nb.add(note{kind: noteTransition, cls: sc.cls, inst: *inst, from: from, to: tr.To, symbol: p.Symbol})
		matched = true
		if tr.Cleanup() {
			nb.add(note{kind: noteAccept, cls: sc.cls, inst: *inst})
		}
	}

	if !matched && !sc.quarantined.Load() {
		if init := p.initTr(); init != nil {
			initKey := key.project(init.KeyMask)
			if sc.findIn(&sc.shards[sc.shardOf(initKey)], initKey) < 0 {
				if slot := s.shardedClaim(sc, nb, failStop, &firstErr, set, initKey); slot >= 0 {
					inst := sc.activate(slot, init.To, initKey)
					nb.add(note{kind: noteNew, cls: sc.cls, inst: *inst})
					nb.add(note{kind: noteTransition, cls: sc.cls, inst: *inst, from: init.From, to: init.To, symbol: p.Symbol})
					if init.Cleanup() {
						nb.add(note{kind: noteAccept, cls: sc.cls, inst: *inst})
					}
				}
			}
		} else if p.Flags&SymRequired != 0 && sc.live.Load() > 0 {
			// Reached the assertion site with bindings no instance
			// holds (fig. 9 “Error”); with no live instances the event
			// arrived outside the bound and is ignored.
			s.shardedFail(sc, nb, failStop, &firstErr, &Violation{Class: sc.cls, Kind: VerdictNoInstance, Key: key, Symbol: p.Symbol})
		}
	}

	if p.cleanup && !sc.quarantined.Load() {
		// A cleanup transition resets the class: all instances are
		// expunged and events are ignored until the next «init».
		sc.expungeLocked()
	}

	return firstErr
}
