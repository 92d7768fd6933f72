package core

// The compiled transition engine. Everything an event's effect depends on
// that is constant per (class, symbol) is derived once, at automaton-link
// time — internal/automata lowers each class into one SymbolPlan per
// alphabet symbol — so the store's event bodies do
// O(candidates) table lookups per event:
//
//   - a dense state→transition array (next) replaces a first-match scan
//     over the TransitionSet, with a 64-bit From-state bitmask in front of
//     it so the common no-edge case is one shift-and-test;
//   - the «init» transition and the cleanup flag are picked once, not once
//     per event.
//
// Both store bodies — per-thread slots (update.go) and global stripes
// (shard.go) — execute plans.

// SymbolPlan is the compiled form of one (class, symbol) pair: everything an
// event's effect depends on that its TransitionSet fixes, derived once.
type SymbolPlan struct {
	// Cls, Symbol, Flags and TS are the class, the event's name and
	// flags, and the transitions it can drive.
	Cls    *Class
	Symbol string
	Flags  SymbolFlags
	TS     TransitionSet

	// next[q] is the index in TS of the transition taken from state q
	// (the first edge from q in TS order wins), or -1. The table
	// covers every From state in TS, so an out-of-range state provably has
	// no edge.
	next []int32
	// fromMask caches bit q of "state q has an edge" for states < 64 — a
	// branch-free prefilter for the common no-edge candidate.
	fromMask uint64
	// init is the index in TS of the first «init» transition, or -1.
	init int32
	// cleanup is TS.HasCleanup().
	cleanup bool
}

// NewSymbolPlan lowers one (class, symbol) transition set into its engine
// plan. ts is retained (not copied); callers must not mutate it afterwards.
func NewSymbolPlan(cls *Class, symbol string, flags SymbolFlags, ts TransitionSet) *SymbolPlan {
	states := cls.States
	for i := range ts {
		if ts[i].From >= states {
			states = ts[i].From + 1
		}
	}
	p := &SymbolPlan{
		Cls:    cls,
		Symbol: symbol,
		Flags:  flags,
		TS:     ts,
		next:   make([]int32, states),
		init:   -1,
	}
	for q := range p.next {
		p.next[q] = -1
	}
	for i := range ts {
		q := ts[i].From
		if p.next[q] >= 0 {
			// A second edge from the same state: the first one in
			// TS order wins.
			continue
		}
		p.next[q] = int32(i)
		if q < 64 {
			p.fromMask |= 1 << q
		}
	}
	for i := range ts {
		if ts[i].Init() {
			p.init = int32(i)
			break
		}
	}
	p.cleanup = ts.HasCleanup()
	return p
}

// HasInit reports whether the plan carries an «init» transition.
func (p *SymbolPlan) HasInit() bool { return p.init >= 0 }

// HasCleanup reports whether the plan finalises instances.
func (p *SymbolPlan) HasCleanup() bool { return p.cleanup }

// find returns the transition taken from state q, or nil. One shift-and-test
// rejects edge-less states; the table lookup handles the rest.
func (p *SymbolPlan) find(q uint32) *Transition {
	if q < 64 {
		if p.fromMask&(1<<q) == 0 {
			return nil
		}
		return &p.TS[p.next[q]]
	}
	if q < uint32(len(p.next)) {
		if i := p.next[q]; i >= 0 {
			return &p.TS[i]
		}
	}
	return nil
}

// initTr returns the hoisted «init» transition, or nil.
func (p *SymbolPlan) initTr() *Transition {
	if p.init < 0 {
		return nil
	}
	return &p.TS[p.init]
}
