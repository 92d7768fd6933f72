package automata

import "tesla/internal/core"

// Engine lowering. Each class is compiled into one monomorphic
// core.SymbolPlan per alphabet symbol, the form the stores' event bodies
// execute. The lowering hoists everything that is constant per (class,
// symbol) — the state→transition table, the «init» selection, the cleanup
// flag — out of the per-event loop; the per-event residue is what
// internal/core's compiled bodies run.
//
// Lowering is lazy and happens once per automaton, guarded by a sync.Once:
// monitor.New pays it when it registers the automaton, so every path that
// compiles automata — the build graph, the sequential toolchain, tests,
// tools — reaches plans the same way.

// Plans returns the automaton's compiled plans, one per alphabet symbol and
// indexed by symbol ID (Symbols[i].ID == i, so the table is dense by
// construction), lowering them on first use. Safe for concurrent callers.
func (a *Automaton) Plans() []*core.SymbolPlan {
	a.plansOnce.Do(func() {
		a.plans = make([]*core.SymbolPlan, len(a.Symbols))
		for i, s := range a.Symbols {
			a.plans[i] = core.NewSymbolPlan(a.Class, s.Name, s.Flags, a.Trans[s.ID])
		}
	})
	return a.plans
}
