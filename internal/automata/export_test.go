package automata

// SymbolByName finds an alphabet symbol by display name, or nil.
func (a *Automaton) SymbolByName(name string) *Symbol {
	for _, s := range a.Symbols {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// accepts simulates the ε-NFA on a symbol string using TESLA's conditional
// semantics (irrelevant events may be skipped by any alternative) — the
// reference model for DFA equivalence testing. A run is accepted when the
// bound ends with some alternative either complete (the final state) or
// never having passed the assertion site (the bypass rule of §4.1).
func (g *nfaGraph) accepts(seq []int, strict bool) bool {
	cur := g.closure([]int{g.start})
	for _, sym := range seq {
		var next []int
		for _, m := range cur {
			moved := false
			for _, e := range g.states[m].edges {
				if e.sym == sym {
					next = append(next, e.to)
					moved = true
				}
			}
			if sym != siteSymbolID && !strict {
				next = append(next, m) // conditional: event may be irrelevant
			} else if !moved && strict {
				// strict: member dies
				_ = moved
			}
		}
		cur = g.closure(next)
		if len(cur) == 0 {
			return false
		}
	}
	for _, m := range cur {
		if m == g.final || g.preSite[m] {
			return true
		}
	}
	return false
}

// Has reports membership.
func (s StateSet) Has(q uint32) bool {
	for _, v := range s {
		if v == q {
			return true
		}
	}
	return false
}
