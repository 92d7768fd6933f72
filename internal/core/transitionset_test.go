package core

import (
	"math/rand"
	"testing"
)

// TransitionSet predicate tests: HasInit/HasCleanup and the «init» selection
// are hoisted into every SymbolPlan at lowering time, so their edge cases —
// empty sets, several init candidates, cleanup-only sets — are pinned here
// and cross-checked against the plan's cached answers.

// initOf lowers ts and returns the plan's hoisted «init» transition.
func initOf(ts TransitionSet) *Transition {
	return NewSymbolPlan(&Class{Name: "init", States: 8}, "e", 0, ts).initTr()
}

func TestTransitionSetPredicatesEmpty(t *testing.T) {
	var ts TransitionSet
	if ts.HasInit() {
		t.Error("empty set reports HasInit")
	}
	if ts.HasCleanup() {
		t.Error("empty set reports HasCleanup")
	}
	if tr := initOf(ts); tr != nil {
		t.Errorf("empty set yields init transition %v", tr)
	}
	if ts := (TransitionSet{{From: 1, To: 2}}); ts.HasInit() || ts.HasCleanup() || initOf(ts) != nil {
		t.Error("plain update edge misclassified")
	}
}

func TestInitTransitionFirstCandidateWins(t *testing.T) {
	ts := TransitionSet{
		{From: 3, To: 4},
		{From: 0, To: 1, Flags: TransInit, KeyMask: 1},
		{From: 0, To: 2, Flags: TransInit, KeyMask: 3},
	}
	if !ts.HasInit() {
		t.Fatal("HasInit false with two init candidates")
	}
	// The first init in set order wins, or instances land in different
	// start states than the lifecycle rules say.
	cls := &Class{Name: "initpick", States: 8}
	p := NewSymbolPlan(cls, "enter", 0, ts)
	if !p.HasInit() {
		t.Fatal("plan lost the init transition")
	}
	if got := p.initTr(); got != &ts[1] {
		t.Errorf("plan hoisted init %v, want first candidate %v", got, ts[1])
	}
}

func TestTransitionSetCleanupOnly(t *testing.T) {
	ts := TransitionSet{
		{From: 2, To: 7, Flags: TransCleanup},
		{From: 4, To: 7, Flags: TransCleanup},
	}
	if ts.HasInit() {
		t.Error("cleanup-only set reports HasInit")
	}
	if !ts.HasCleanup() {
		t.Error("cleanup-only set misses HasCleanup")
	}
	if tr := initOf(ts); tr != nil {
		t.Errorf("cleanup-only set yields init transition %v", tr)
	}
	cls := &Class{Name: "cleanuponly", States: 8}
	p := NewSymbolPlan(cls, "exit", 0, ts)
	if p.HasInit() || !p.HasCleanup() {
		t.Errorf("plan HasInit %v HasCleanup %v, want cleanup without init", p.HasInit(), p.HasCleanup())
	}
}

func TestTransitionSetInitAndCleanupTogether(t *testing.T) {
	// A one-event bound: the same event opens and finalises an instance.
	ts := TransitionSet{{From: 0, To: 1, Flags: TransInit | TransCleanup}}
	if !ts.HasInit() || !ts.HasCleanup() {
		t.Fatal("combined init+cleanup flags not reported")
	}
	if tr := initOf(ts); tr == nil || !tr.Cleanup() {
		t.Errorf("hoisted init = %v, want the combined edge", tr)
	}
}

// TestTransitionSetFirstMatchTable pins the lowered state table against the
// interpreted first-match scan: for every state, next names exactly the
// first transition in set order whose From is that state, and find agrees —
// across duplicate edges from one state, From states past the class's state
// count and states on both sides of the 64-bit prefilter.
func TestTransitionSetFirstMatchTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := 0
	for trial := 0; trial < 300; trial++ {
		cls := &Class{Name: "table", States: uint32(1 + rng.Intn(80))}
		ts := make(TransitionSet, rng.Intn(12))
		for i := range ts {
			ts[i] = Transition{From: uint32(rng.Intn(100)), To: uint32(rng.Intn(100))}
		}
		p := NewSymbolPlan(cls, "e", 0, ts)
		for q := uint32(0); q < uint32(len(p.next))+3; q++ {
			want := int32(-1)
			for j := range ts {
				if ts[j].From == q {
					want = int32(j)
					break
				}
			}
			if q < uint32(len(p.next)) && p.next[q] != want {
				t.Fatalf("trial %d state %d: table says %d, first-match scan says %d", trial, q, p.next[q], want)
			}
			got := p.find(q)
			switch {
			case want < 0 && got != nil:
				t.Fatalf("trial %d state %d: find = %v, scan finds no edge", trial, q, got)
			case want >= 0 && got != &ts[want]:
				t.Fatalf("trial %d state %d: find = %v, want transition %d", trial, q, got, want)
			}
			if want >= 0 {
				edges++
			}
		}
	}
	if edges == 0 {
		t.Fatal("no trial lowered an edge")
	}
}
