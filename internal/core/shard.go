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
//   - an atomic census of live instances per key mask, which drives lock
//     planning below.
//
// All three live in the class's one record (classState, store.go) and stay
// empty in a per-thread store. The lifecycle the candidates then go through,
// and every degradation decision, is the same for both layouts (drive,
// claim).
//
// Lock planning: an event with key E must reach every live instance whose
// key is compatible with E. A compatible instance whose mask is a subset of
// E's mask is *exactly* E projected onto that mask, so it is found with one
// hash lookup in one computable shard. The mask census says which masks are
// live: if all of them are subsets of E's mask, the event locks only the
// shards of those projections (plus clone/init targets, which are
// projections too); if any live instance binds a slot E does not, its shard
// cannot be computed and the event falls back to locking every stripe and
// scanning. Each op's plan (stripePlan) is made once, under the stripes it
// names, and carries which projections it found live, with their hashes,
// so candidate collection reads no census and hashes nothing again.
// Cross-shard operations — clone-from-ANY fallbacks, «cleanup»,
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

// storeShard is one lock stripe: a mutex and the hash index of the instances
// whose keys hash to this stripe.
type storeShard struct {
	mu sync.Mutex
	// table maps probe positions to slot+1; 0 is empty. Deletion
	// backward-shifts, so a probe may stop at the first empty entry.
	table []uint32
	_     [40]byte // keep neighbouring stripes off one cache line
}

// initStripes builds n stripes, their index tables and the free bitmap
// around the class's block; n == 0 leaves a PerThread record.
func (c *classState) initStripes(n int) {
	if n == 0 {
		return
	}
	c.shards = make([]storeShard, n)
	c.free = make([]atomic.Uint64, (len(c.insts)+63)/64)
	tsize := 8
	for tsize < 2*len(c.insts) {
		tsize <<= 1
	}
	for i := range c.shards {
		c.shards[i].table = make([]uint32, tsize)
	}
	c.resetFreeList()
}

// resetFreeList marks every slot free. Callers must hold every shard lock
// (or own the class exclusively, as at registration).
func (c *classState) resetFreeList() {
	for w := range c.free {
		n := len(c.insts) - w*64
		if n >= 64 {
			c.free[w].Store(^uint64(0))
		} else {
			c.free[w].Store(1<<uint(n) - 1)
		}
	}
}

// clearStripes empties every index, the mask census and the free list, as
// part of expunge. Every stripe lock must be held.
func (c *classState) clearStripes() {
	for i := range c.shards {
		clear(c.shards[i].table)
	}
	for m := range c.masks {
		c.masks[m].Store(0)
	}
	c.resetFreeList()
}

// index enters a freshly activated slot in its stripe's index and the mask
// census. The key's stripe lock must be held.
func (c *classState) index(slot int32) {
	k := c.insts[slot].Key
	h := hashKey(k)
	c.insertIn(&c.shards[c.stripeOf(h)], slot, h)
	c.masks[k.Mask&keyMaskAll].Add(1)
}

// unindex reverses index and frees the slot. The key's stripe lock must be
// held.
func (c *classState) unindex(slot int32) {
	inst := &c.insts[slot]
	h := hashKey(inst.Key)
	c.removeIn(&c.shards[c.stripeOf(h)], slot, h)
	c.masks[inst.Key.Mask&keyMaskAll].Add(-1)
	inst.Active = false
	c.freeSlot(slot)
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

// stripeOf picks the stripe for a key hash from its high bits; probe
// positions use the low bits, so stripe and probe stay decorrelated.
func (c *classState) stripeOf(h uint64) int {
	return int(h>>48) & (len(c.shards) - 1)
}

// allMask is the lock set covering every stripe: 0 in a PerThread record,
// which has none and so always holds them all.
func (c *classState) allMask() uint64 {
	return 1<<uint(len(c.shards)) - 1
}

// lock acquires the stripes in set in ascending index order — the fixed
// lock order every cross-shard operation follows.
func (c *classState) lock(set uint64) {
	for i := range c.shards {
		if set&(1<<uint(i)) != 0 {
			c.shards[i].mu.Lock()
		}
	}
}

func (c *classState) unlock(set uint64) {
	for i := range c.shards {
		if set&(1<<uint(i)) != 0 {
			c.shards[i].mu.Unlock()
		}
	}
}

// allocSlot claims the lowest free slot, or returns -1 on overflow.
// Lock-free: events holding different stripe locks allocate concurrently,
// and sequentially the slot chosen is the first-fit scan's.
func (c *classState) allocSlot() int32 {
	for w := range c.free {
		v := c.free[w].Load()
		for v != 0 {
			b := uint(bits.TrailingZeros64(v))
			if c.free[w].CompareAndSwap(v, v&^(1<<b)) {
				return int32(w*64) + int32(b)
			}
			v = c.free[w].Load()
		}
	}
	return -1
}

// freeSlot returns a slot to the bitmap.
func (c *classState) freeSlot(slot int32) {
	w, bit := slot/64, uint64(1)<<uint(slot%64)
	for {
		v := c.free[w].Load()
		if c.free[w].CompareAndSwap(v, v|bit) {
			return
		}
	}
}

// findIn looks up the slot holding exactly key k, whose hash is h, in one
// stripe's index, or -1. The stripe lock must be held.
func (c *classState) findIn(sh *storeShard, k Key, h uint64) int32 {
	mask := uint64(len(sh.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := sh.table[i]
		if e == 0 {
			return -1
		}
		if slot := int32(e - 1); c.insts[slot].Key == k {
			return slot
		}
	}
}

// insertIn adds slot under its key, whose hash is h, to one stripe's index.
// The stripe lock must be held. The table never fills: its size is twice
// the class limit.
func (c *classState) insertIn(sh *storeShard, slot int32, h uint64) {
	mask := uint64(len(sh.table) - 1)
	i := h & mask
	for sh.table[i] != 0 {
		i = (i + 1) & mask
	}
	sh.table[i] = uint32(slot) + 1
}

// removeIn deletes slot, whose key hashes to h, from one stripe's index
// with backward-shift deletion, so probes need no tombstones. The stripe
// lock must be held.
func (c *classState) removeIn(sh *storeShard, slot int32, h uint64) {
	mask := uint64(len(sh.table) - 1)
	i := h & mask
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
		home := hashKey(c.insts[e-1].Key) & mask
		// The entry at j can fill the hole at i iff its home position
		// lies cyclically at or before i.
		if (j-home)&mask >= (j-i)&mask {
			sh.table[i] = e
			sh.table[j] = 0
			i = j
		}
	}
}

// stripePlan is one event's lock plan: the stripe set, the scan flag and —
// when the event does not scan — its probes, one per live key mask m: the
// event key projected onto m, whose hash is hash[m]. Every probe's stripe
// is in set by construction. The plan an event runs by is made under the
// stripes it names (lockCovering, or a batch run's held window); one made
// before locking only picks the stripes to take.
type stripePlan struct {
	set    uint64
	scan   bool
	probes uint16 // bit m set: mask m is live and a subset of the key's
	hash   [1 << KeySize]uint64
}

// plan fills sp for event (p, key): the stripe of every live mask's
// projection of the key (each recorded as a probe), of the key itself
// (clone target) and of the «init» key. If some live instance binds a slot
// outside the event's mask, its stripe cannot be computed: the plan takes
// every stripe and scans. Cleanup events take every stripe (they expunge
// the whole class).
func (s *Store) plan(c *classState, p *SymbolPlan, key Key, sp *stripePlan) {
	sp.probes, sp.scan = 0, true
	sp.set = c.allMask()
	// A pending quarantine flush needs exclusive ownership.
	if c.needsFlush.Load() {
		return
	}
	// EvictOldest's class-wide victim scan needs every stripe, but only
	// when this event could actually overflow. One event allocates at most
	// one clone per pre-event candidate plus one «init» — ≤ live+1 slots —
	// so with limit-live ≥ live+1 free slots it cannot exhaust the block
	// and normal planning applies. The headroom argument collapses when a
	// fault injector is armed (any allocation may fail), so then every
	// event takes the full set. Concurrent events can still eat the
	// headroom the plan saw; claim re-checks ownership and degrades that
	// rare overflow to drop-new rather than scan unowned stripes.
	if s.sv.overflow == EvictOldest {
		live := int(c.live.Load())
		if s.sv.allocFail != nil || len(c.insts)-live < live+1 {
			return
		}
	}
	set := uint64(0)
	for m := uint32(0); m <= keyMaskAll; m++ {
		if c.masks[m].Load() == 0 {
			continue
		}
		if m&^key.Mask != 0 {
			return
		}
		h := hashKey(key.project(m))
		sp.hash[m] = h
		sp.probes |= 1 << m
		set |= 1 << uint(c.stripeOf(h))
	}
	sp.scan = false
	if p.cleanup {
		return
	}
	set |= 1 << uint(c.stripeOf(hashKey(key)))
	if init := p.initTr(); init != nil {
		set |= 1 << uint(c.stripeOf(hashKey(key.project(init.KeyMask))))
	}
	sp.set = set
}

// lockCovering acquires set, then plans the event (p, key) into sp under the
// locks and widens the set until it covers the plan: another thread may
// have activated an instance whose mask widens it between the caller's
// optimistic plan and the locking. It escalates to every stripe after one
// miss, so it terminates, and returns the held set.
func (s *Store) lockCovering(c *classState, set uint64, p *SymbolPlan, key Key, sp *stripePlan) uint64 {
	for tries := 0; ; tries++ {
		c.lock(set)
		s.plan(c, p, key, sp)
		if sp.set&^set == 0 {
			return set
		}
		c.unlock(set)
		if tries >= 1 {
			set = c.allMask()
		} else {
			set |= sp.set
		}
	}
}

// applySharded is the global event body: it collects the event's
// candidates through the striped index and hands them to drive. The caller
// holds the stripe locks in set and made sp, the event's plan, under them;
// so set covers every probe's stripe.
func (s *Store) applySharded(c *classState, p *SymbolPlan, key Key, nb *noteBuf, set uint64, sp *stripePlan) error {
	if c.needsFlush.Load() && set == c.allMask() {
		// Deferred quarantine expunge: plan escalates to every stripe
		// while the flag is set, so the first event through after re-arm
		// lands here holding the full set. (A concurrent entry can raise
		// the flag after our plan — then this event proceeds as if
		// linearised before the quarantine and the next one flushes.)
		c.expunge()
		c.needsFlush.Store(false)
	}

	// With no out-of-mask masks live, every compatible instance is a
	// projection of the key: a handful of O(1) index lookups replaces a
	// scan over the whole block. A mask the census gained after the plan
	// was activated by a concurrent event under a stripe this one may not
	// hold: that instance is linearised after this event and not a
	// candidate.
	var candBuf [DefaultInstanceLimit]cand
	cands := candBuf[:0]
	if sp.scan {
		for si := range c.shards {
			for _, e := range c.shards[si].table {
				if e == 0 {
					continue
				}
				if slot := int32(e - 1); c.insts[slot].Key.Compatible(key) {
					cands = append(cands, cand{slot: slot, birth: c.insts[slot].birth})
				}
			}
		}
	} else {
		for ms := sp.probes; ms != 0; ms &= ms - 1 {
			m := bits.TrailingZeros16(ms)
			h := sp.hash[m]
			if slot := c.findIn(&c.shards[c.stripeOf(h)], key.project(uint32(m)), h); slot >= 0 {
				cands = append(cands, cand{slot: slot, birth: c.insts[slot].birth})
			}
		}
	}
	return s.drive(c, cands, p, key, nb, set)
}
