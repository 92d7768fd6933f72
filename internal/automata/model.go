package automata

import (
	"fmt"
	"strings"

	"tesla/internal/spec"
)

// This file exposes the automaton as an analysable transition model, the
// query surface internal/staticcheck drives when it computes the product of
// a program's control-flow graph with an assertion's state machine. The
// queries mirror libtesla's conditional update semantics exactly: a state
// with no edge for a symbol simply stays put (the store's irrelevant-event
// path), sites are move-only, and cleanup legality is a per-state property.

// StateSet is a sorted, deduplicated set of DFA state IDs. The zero value
// is the empty set.
type StateSet []uint32

// NewStateSet builds a set from the given states.
func NewStateSet(qs ...uint32) StateSet {
	var s StateSet
	for _, q := range qs {
		s = s.add(q)
	}
	return s
}

func (s StateSet) add(q uint32) StateSet {
	for i, v := range s {
		if v == q {
			return s
		}
		if v > q {
			out := make(StateSet, 0, len(s)+1)
			out = append(out, s[:i]...)
			out = append(out, q)
			return append(out, s[i:]...)
		}
	}
	return append(s, q)
}

// Union returns s ∪ t without mutating either operand.
func (s StateSet) Union(t StateSet) StateSet {
	out := append(StateSet(nil), s...)
	for _, q := range t {
		out = out.add(q)
	}
	return out
}

// Key is a canonical string form, usable as a map key.
func (s StateSet) Key() string {
	var sb strings.Builder
	for i, q := range s {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", q)
	}
	return sb.String()
}

func (s StateSet) String() string { return "{" + s.Key() + "}" }

// Move returns the DFA successor of state q under symbol sym, if the
// transition table has an explicit edge. The table is deterministic by
// construction (subset construction yields at most one successor per
// state and symbol).
func (a *Automaton) Move(q uint32, sym int) (uint32, bool) {
	for _, t := range a.Trans[sym] {
		if t.From == q {
			return t.To, true
		}
	}
	return 0, false
}

// HasMove reports whether state q has an explicit edge for sym.
func (a *Automaton) HasMove(q uint32, sym int) bool {
	_, ok := a.Move(q, sym)
	return ok
}

// CanCleanup reports whether an instance in state q accepts the «cleanup»
// event at bound exit; states without a cleanup edge yield an Incomplete
// verdict when the bound ends.
func (a *Automaton) CanCleanup(q uint32) bool {
	return a.HasMove(q, a.BoundEnd().ID)
}

// step is the one walker behind DetStep and CondStep. Both compute the image
// of set under sym from the same edges; they differ only in what an edge-less
// or forked source state contributes. With keepAll set every source state
// stays in the image (the population view: an instance may skip the event or
// fork a clone that leaves the parent behind); without it only edge-less
// states stay (the single-instance view: an instance with an edge takes it).
func (a *Automaton) step(set StateSet, sym int, keepAll bool) StateSet {
	var out StateSet
	if keepAll {
		out = append(StateSet(nil), set...)
	}
	for _, q := range set {
		to, ok := a.Move(q, sym)
		switch {
		case ok:
			out = out.add(to)
		case !keepAll:
			out = out.add(q)
		}
	}
	return out
}

// DetStep is the image of set under sym when the event is delivered to an
// exactly-keyed instance: each state takes its edge if one exists, else
// stays (libtesla's skip path for irrelevant conditional events).
func (a *Automaton) DetStep(set StateSet, sym int) StateSet {
	return a.step(set, sym, false)
}

// CondStep is the overapproximate image of set under sym for a population
// of instances: every state remains possible (an instance may skip the
// event, or fork a clone leaving the parent behind) and every explicit
// edge target becomes possible.
func (a *Automaton) CondStep(set StateSet, sym int) StateSet {
	return a.step(set, sym, true)
}

// Deterministic reports whether the symbol's event translator delivers on
// every occurrence of its program event: no constant/flags/bitmask pattern
// to fail, no duplicate-variable consistency check, and no indirect load.
// Deterministic symbols let the static checker treat delivery as certain;
// all others are "may fire".
func (s *Symbol) Deterministic() bool {
	seen := map[string]bool{}
	ok := true
	check := func(p spec.ArgPattern) {
		if p.Indirect {
			ok = false
			return
		}
		switch p.Kind {
		case spec.PatConst, spec.PatFlags, spec.PatBitmask:
			ok = false
		case spec.PatVar:
			if seen[p.Var] {
				ok = false
			}
			seen[p.Var] = true
		}
	}
	switch s.Kind {
	case KindFieldAssign:
		check(s.Target)
		if s.AssignOp != spec.OpIncr {
			check(s.Value)
		}
	default:
		for _, p := range s.Args {
			check(p)
		}
		if s.Kind == KindFuncExit && s.Ret != nil {
			check(*s.Ret)
		}
	}
	return ok
}

// IndirectAccess reports whether delivering the symbol dereferences a
// pointer (an `*x` pattern or capture). Such loads can abort the VM on a
// bad address, so static analysis must treat the hook as a possible
// program-exit point.
func (s *Symbol) IndirectAccess() bool {
	pats := append([]spec.ArgPattern{}, s.Args...)
	if s.Ret != nil {
		pats = append(pats, *s.Ret)
	}
	if s.Kind == KindFieldAssign {
		pats = append(pats, s.Target, s.Value)
	}
	for _, p := range pats {
		if p.Indirect {
			return true
		}
	}
	for _, c := range s.Captures {
		if c.Indirect {
			return true
		}
	}
	return false
}
