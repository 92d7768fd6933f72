package automata

import (
	"math/rand"
	"testing"
)

const engineTestSpec = `TESLA_WITHIN(main, previously(lock(x) == 0, unlock(x) == 0))`

// TestEngineLoweringMatchesTransitions pins the lowered plans against the
// automaton's own alphabet and transition sets: one plan per symbol, indexed
// by symbol ID, carrying that symbol's identity and the «init»/cleanup flags
// of its transition set, lowered once. The plan's state table itself is
// checked against the first-match scan in package core.
func TestEngineLoweringMatchesTransitions(t *testing.T) {
	auto := compileSrc(t, "lower", engineTestSpec, nil)
	plans := auto.Plans()
	if len(plans) != len(auto.Symbols) {
		t.Fatalf("engine has %d plans for %d symbols", len(plans), len(auto.Symbols))
	}
	for _, s := range auto.Symbols {
		p := plans[s.ID]
		if p == nil {
			t.Fatalf("no plan for symbol %d (%s)", s.ID, s.Name)
		}
		if p.Symbol != s.Name || p.Flags != s.Flags || p.Cls != auto.Class {
			t.Fatalf("plan identity mismatch for %s: %s/%v", s.Name, p.Symbol, p.Flags)
		}
		ts := auto.Trans[s.ID]
		if p.HasCleanup() != ts.HasCleanup() || p.HasInit() != ts.HasInit() {
			t.Fatalf("plan %s flags drifted from transition set", s.Name)
		}
	}
	if again := auto.Plans(); &again[0] != &plans[0] {
		t.Fatal("Plans() must be lowered once and cached")
	}
}

// TestStepUnifiedContract pins the relationship DetStep and CondStep inherit
// from the one parameterised walker behind them: over any state set,
// CondStep(set) == set ∪ DetStep(set) — the population view only ever adds
// the stay-behind sources to the single-instance view.
func TestStepUnifiedContract(t *testing.T) {
	auto := compileSrc(t, "unified", engineTestSpec, nil)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var set StateSet
		for q := uint32(0); q < auto.States; q++ {
			if rng.Intn(3) == 0 {
				set = set.add(q)
			}
		}
		for _, s := range auto.Symbols {
			det := auto.DetStep(set, s.ID)
			cond := auto.CondStep(set, s.ID)
			if cond.Key() != set.Union(det).Key() {
				t.Fatalf("symbol %s set %s: CondStep %s != set ∪ DetStep %s",
					s.Name, set, cond, set.Union(det))
			}
			// Each DetStep member is a Move target or an edge-less source.
			for _, q := range det {
				if _, ok := auto.Move(q, s.ID); ok {
					continue
				}
				if set.Has(q) && !auto.HasMove(q, s.ID) {
					continue
				}
				// q has an edge of its own — legal only if it is some
				// source's target.
				target := false
				for _, src := range set {
					if to, ok := auto.Move(src, s.ID); ok && to == q {
						target = true
						break
					}
				}
				if !target {
					t.Fatalf("symbol %s set %s: DetStep member %d unexplained", s.Name, set, q)
				}
			}
		}
	}
}
