package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests over UpdateStatePlan: random event streams must preserve the
// store's structural invariants regardless of ordering.

// randomTransitionSets builds a plausible automaton shape: init from 0,
// a few keyed middle transitions, cleanup edges.
func randomSets(r *rand.Rand) (enter, mid, site, exit TransitionSet) {
	states := uint32(3 + r.Intn(3))
	enter = TransitionSet{{From: 0, To: 1, Flags: TransInit}}
	for s := uint32(1); s < states; s++ {
		mid = append(mid, Transition{From: s, To: 1 + (s % states), KeyMask: 1})
	}
	site = TransitionSet{{From: 2, To: states, KeyMask: 1}}
	for s := uint32(1); s <= states; s++ {
		if r.Intn(2) == 0 || s == 1 {
			exit = append(exit, Transition{From: s, To: states + 1, Flags: TransCleanup})
		}
	}
	return
}

// TestQuickStoreInvariants drives random event streams and checks:
//  1. no two active instances of a class share a key;
//  2. live count never exceeds the preallocation limit;
//  3. after a cleanup event the class is empty;
//  4. LiveCount agrees with Instances.
//
// The property runs against both store layouts.
func TestQuickStoreInvariants(t *testing.T) {
	storeVariants(t, func(t *testing.T, l layout) { quickStoreInvariants(t, l) })
}

func quickStoreInvariants(t *testing.T, l layout) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		cls := &Class{Name: "q", States: 16, Limit: 4 + rng.Intn(8)}
		s := l.store(StoreOpts{})
		s.Register(cls)
		enter, mid, site, exit := randomSets(rng)

		check := func() bool {
			insts := s.Instances(cls)
			if len(insts) != s.LiveCount(cls) {
				return false
			}
			if len(insts) > cls.Limit {
				return false
			}
			seen := map[Key]bool{}
			for _, in := range insts {
				if seen[in.Key] {
					return false
				}
				seen[in.Key] = true
			}
			return true
		}

		for ev := 0; ev < 60; ev++ {
			switch rng.Intn(8) {
			case 0:
				s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
			case 1, 2, 3:
				s.UpdateStatePlan(NewSymbolPlan(cls, "mid", 0, mid), NewKey(Value(rng.Intn(12))))
			case 4, 5:
				s.UpdateStatePlan(NewSymbolPlan(cls, "site", SymRequired, site), NewKey(Value(rng.Intn(12))))
			case 6:
				s.UpdateStatePlan(NewSymbolPlan(cls, "exit", 0, exit), AnyKey)
				if s.LiveCount(cls) != 0 {
					return false
				}
			case 7:
				s.UpdateStatePlan(NewSymbolPlan(cls, "mid", SymStrict, mid), NewKey(Value(rng.Intn(12))))
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCloneKeysSpecializeParents: after any event stream, every
// instance key is reachable by specialising the init key (here: any key is
// ≥ (∗)) — and more specifically, clones agree with the event keys that
// created them (each active key is either (∗) or a key we sent).
func TestQuickCloneKeyProvenance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		cls := &Class{Name: "prov", States: 8, Limit: 16}
		s := NewStoreOpts(StoreOpts{Context: PerThread})
		s.Register(cls)
		enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
		mid := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 2, KeyMask: 1}}

		s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
		sent := map[Key]bool{AnyKey: true}
		for i := 0; i < 20; i++ {
			k := NewKey(Value(rng.Intn(6)))
			sent[k] = true
			s.UpdateStatePlan(NewSymbolPlan(cls, "mid", 0, mid), k)
		}
		for _, in := range s.Instances(cls) {
			if !sent[in.Key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHandlerConsistency: transitions reported to the handler always
// move between valid states, and every accept is preceded by a transition.
func TestQuickHandlerConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		cls := &Class{Name: "h", States: 8, Limit: 8}
		h := NewCountingHandler()
		s := NewStoreOpts(StoreOpts{Context: PerThread, Handler: h})
		s.Register(cls)
		enter, mid, site, exit := randomSets(rng)
		for i := 0; i < 40; i++ {
			switch rng.Intn(4) {
			case 0:
				s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
			case 1:
				s.UpdateStatePlan(NewSymbolPlan(cls, "mid", 0, mid), NewKey(Value(rng.Intn(5))))
			case 2:
				s.UpdateStatePlan(NewSymbolPlan(cls, "site", SymRequired, site), NewKey(Value(rng.Intn(5))))
			case 3:
				s.UpdateStatePlan(NewSymbolPlan(cls, "exit", 0, exit), AnyKey)
			}
		}
		var transitions uint64
		for e, n := range h.Edges() {
			if e.From == e.To && e.Symbol == "enter" {
				return false // init edges never self-loop here
			}
			transitions += n
		}
		return transitions == 0 || h.Accepts(cls.Name) <= transitions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
