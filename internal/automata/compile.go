package automata

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tesla/internal/core"
	"tesla/internal/spec"
)

// Automaton is the compiled form of one TESLA assertion: the automaton
// representation that the analyser stores in .tesla files and that drives
// both the instrumenter and libtesla.
type Automaton struct {
	Name string
	Spec *spec.Assertion

	// Vars are the scope variables, in key-slot order (≤ core.KeySize).
	Vars []string

	// Symbols is the alphabet; Symbols[i].ID == i.
	Symbols []*Symbol

	// States includes state 0 (pre-init) and the final accept state.
	States uint32
	// Start is the state entered by the «init» transition.
	Start uint32
	// Accept is the state entered by «cleanup» transitions.
	Accept uint32

	// Trans[symID] is the transition set driven by that symbol.
	Trans []core.TransitionSet

	// Class is the libtesla class instances of this automaton use.
	Class *core.Class

	// nfa is retained for equivalence testing (DFA vs NFA acceptance).
	nfa *nfaGraph

	// plansOnce/plans hold the lazily-lowered engine plans (engine.go).
	plansOnce sync.Once
	plans     []*core.SymbolPlan
}

// SymbolByName finds an alphabet symbol by display name, or nil.
func (a *Automaton) SymbolByName(name string) *Symbol {
	for _, s := range a.Symbols {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// BoundBegin returns the «init» symbol.
func (a *Automaton) BoundBegin() *Symbol { return a.Symbols[0] }

// BoundEnd returns the «cleanup» symbol.
func (a *Automaton) BoundEnd() *Symbol { return a.Symbols[1] }

// Site returns the assertion-site symbol.
func (a *Automaton) Site() *Symbol { return a.Symbols[2] }

// VarSlot returns the key slot of a scope variable, or -1.
func (a *Automaton) VarSlot(name string) int {
	for i, v := range a.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// Compile translates an assertion into an automaton, performing the
// recursive descent the paper's analyser does over Clang ASTs (§4.1): the
// expression becomes an NFA over the alphabet of observable events; subset
// construction yields a DFA; «init», «cleanup» and bypass transitions are
// added around it so that, e.g., TESLA_WITHIN(syscall, eventually(foo(x)==0))
// becomes a chain driven by call(syscall), TESLA_ASSERTION_SITE, foo(x)==0
// and returnfrom(syscall), with bypass returnfrom(syscall) transitions for
// code paths that never pass through the assertion site.
func Compile(a *spec.Assertion) (*Automaton, error) {
	if a.Expr == nil {
		return nil, fmt.Errorf("automata: %s: empty assertion expression", a.Name)
	}
	vars := spec.Vars(a.Expr)
	if len(vars) > core.KeySize {
		return nil, fmt.Errorf("automata: %s: %d variables exceed key size %d",
			a.Name, len(vars), core.KeySize)
	}

	auto := &Automaton{Name: a.Name, Spec: a, Vars: vars}
	b := &builder{auto: auto, symIndex: make(map[string]int)}

	var strictFlag core.SymbolFlags
	if a.Strict {
		strictFlag = core.SymStrict
	}

	// Fixed alphabet prefix: bound begin (0), bound end (1), site (2).
	b.addSymbol(&Symbol{
		Name:  a.Bound.Begin.String(),
		Kind:  KindBoundBegin,
		Fn:    a.Bound.Begin.Fn,
		Flags: strictFlag &^ core.SymStrict, // bound events are never strict
	})
	b.addSymbol(&Symbol{
		Name: a.Bound.End.String(),
		Kind: KindBoundEnd,
		Fn:   a.Bound.End.Fn,
	})
	site := &Symbol{
		Name:  "«assertion»",
		Kind:  KindSite,
		Flags: core.SymRequired | strictFlag,
	}
	for i := range vars {
		site.Captures = append(site.Captures, SlotCapture{Slot: i, Src: CapSiteVar, Index: i})
		site.ProvidesMask |= 1 << uint(i)
	}
	b.addSymbol(site)
	b.strictFlag = strictFlag

	// Build the NFA for the normalised expression.
	expr := normalizeSites(a.Expr)
	g := &nfaGraph{}
	frag, err := b.compileExpr(g, expr)
	if err != nil {
		return nil, fmt.Errorf("automata: %s: %w", a.Name, err)
	}
	g.start = frag.start
	g.final = frag.end
	g.computePreSite(siteSymbolID)

	auto.nfa = g
	b.determinize(g, a.Strict)
	auto.Class = &core.Class{
		Name:        a.Name,
		Description: a.String(),
		States:      auto.States,
	}
	return auto, nil
}

// MustCompile is Compile, panicking on error; for statically-known
// assertions (the Go-DSL analogue of compile-time analysis failure).
func MustCompile(a *spec.Assertion) *Automaton {
	auto, err := Compile(a)
	if err != nil {
		panic(err)
	}
	return auto
}

const (
	boundBeginID = 0
	boundEndID   = 1
	siteSymbolID = 2
)

// normalizeSites guarantees the compiled expression mentions the assertion
// site: the TESLA macros are written at a concrete source location, so
// execution reaching that location is always an event. previously/eventually
// already include the site; a bare expression has it appended, and each
// operand of a top-level boolean expression is normalised independently so
// that, e.g., the incallstack branch of figure 7 can satisfy the site on its
// own.
func normalizeSites(e spec.Expr) spec.Expr {
	if be, ok := e.(*spec.BoolExpr); ok {
		ops := make([]spec.Expr, len(be.Exprs))
		for i, op := range be.Exprs {
			ops[i] = normalizeSites(op)
		}
		return &spec.BoolExpr{Op: be.Op, Exprs: ops}
	}
	if containsSite(e) {
		return e
	}
	return &spec.Sequence{Exprs: []spec.Expr{e, &spec.AssertionSite{}}}
}

func containsSite(e spec.Expr) bool {
	found := false
	spec.Walk(e, func(x spec.Expr) {
		if _, ok := x.(*spec.AssertionSite); ok {
			found = true
		}
	})
	return found
}

// nfaGraph is an ε-NFA over symbol IDs.
type nfaGraph struct {
	states  []nstate
	start   int
	final   int
	preSite []bool // state reachable from start without consuming the site
}

type nstate struct {
	eps   []int
	edges []nedge
}

type nedge struct {
	sym int
	to  int
}

func (g *nfaGraph) newState() int {
	g.states = append(g.states, nstate{})
	return len(g.states) - 1
}

func (g *nfaGraph) addEps(from, to int) {
	g.states[from].eps = append(g.states[from].eps, to)
}

func (g *nfaGraph) addEdge(from, sym, to int) {
	g.states[from].edges = append(g.states[from].edges, nedge{sym, to})
}

// computePreSite marks the states reachable from start without traversing a
// site edge. Cleanup (bound end) is legal from such states — the bypass
// transitions of §4.1 — and from accepting states.
func (g *nfaGraph) computePreSite(siteSym int) {
	g.preSite = make([]bool, len(g.states))
	var visit func(int)
	visit = func(s int) {
		if g.preSite[s] {
			return
		}
		g.preSite[s] = true
		for _, t := range g.states[s].eps {
			visit(t)
		}
		for _, e := range g.states[s].edges {
			if e.sym != siteSym {
				visit(e.to)
			}
		}
	}
	visit(g.start)
}

// closure expands a state set with ε-reachability; returns a sorted set.
func (g *nfaGraph) closure(set []int) []int {
	seen := make(map[int]bool, len(set))
	var stack []int
	for _, s := range set {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range g.states[s].eps {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
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

// builder accumulates the alphabet and compiles expression fragments.
type builder struct {
	auto       *Automaton
	symIndex   map[string]int
	strictFlag core.SymbolFlags
}

func (b *builder) addSymbol(s *Symbol) int {
	s.ID = len(b.auto.Symbols)
	b.auto.Symbols = append(b.auto.Symbols, s)
	return s.ID
}

// symbolFor interns the event as an alphabet symbol.
func (b *builder) symbolFor(e spec.Expr) (int, error) {
	key := e.String()
	if id, ok := b.symIndex[key]; ok {
		return id, nil
	}
	var s *Symbol
	switch ev := e.(type) {
	case *spec.AssertionSite:
		return siteSymbolID, nil
	case *spec.InCallStack:
		s = &Symbol{Name: key, Kind: KindInCallStack, Fn: ev.Fn}
	case *spec.FunctionEvent:
		kind := KindFuncEntry
		if ev.Kind == spec.FuncExit {
			kind = KindFuncExit
		}
		s = &Symbol{
			Name: key,
			Kind: kind,
			Fn:   ev.Fn,
			ObjC: ev.ObjC,
			Side: ev.Side,
			Args: ev.Args,
			Ret:  ev.Ret,
		}
		for i, p := range ev.Args {
			if p.Kind == spec.PatVar {
				slot := b.auto.VarSlot(p.Var)
				s.Captures = append(s.Captures, SlotCapture{Slot: slot, Src: CapArg, Index: i, Indirect: p.Indirect})
				s.ProvidesMask |= 1 << uint(slot)
			}
		}
		if ev.Ret != nil && ev.Ret.Kind == spec.PatVar {
			slot := b.auto.VarSlot(ev.Ret.Var)
			s.Captures = append(s.Captures, SlotCapture{Slot: slot, Src: CapRet, Indirect: ev.Ret.Indirect})
			s.ProvidesMask |= 1 << uint(slot)
		}
	case *spec.FieldAssignEvent:
		s = &Symbol{
			Name:     key,
			Kind:     KindFieldAssign,
			Struct:   ev.Struct,
			Field:    ev.Field,
			AssignOp: ev.Op,
			Target:   ev.Target,
			Value:    ev.Value,
		}
		if ev.Target.Kind == spec.PatVar {
			slot := b.auto.VarSlot(ev.Target.Var)
			s.Captures = append(s.Captures, SlotCapture{Slot: slot, Src: CapTarget})
			s.ProvidesMask |= 1 << uint(slot)
		}
		if ev.Value.Kind == spec.PatVar {
			slot := b.auto.VarSlot(ev.Value.Var)
			s.Captures = append(s.Captures, SlotCapture{Slot: slot, Src: CapValue})
			s.ProvidesMask |= 1 << uint(slot)
		}
	default:
		return 0, fmt.Errorf("expression %s is not a concrete event", key)
	}
	s.Flags |= b.strictFlag
	id := b.addSymbol(s)
	b.symIndex[key] = id
	return id, nil
}

type frag struct {
	start, end int
}

// compileExpr builds the Thompson-style fragment for an expression.
func (b *builder) compileExpr(g *nfaGraph, e spec.Expr) (frag, error) {
	switch x := e.(type) {
	case *spec.Sequence:
		if len(x.Exprs) == 0 {
			s := g.newState()
			return frag{s, s}, nil
		}
		first, err := b.compileExpr(g, x.Exprs[0])
		if err != nil {
			return frag{}, err
		}
		cur := first
		for _, sub := range x.Exprs[1:] {
			next, err := b.compileExpr(g, sub)
			if err != nil {
				return frag{}, err
			}
			g.addEps(cur.end, next.start)
			cur = frag{first.start, next.end}
		}
		return cur, nil

	case *spec.BoolExpr:
		// Both ∨ and ^ compile to alternation tracked simultaneously by
		// subset construction — the online equivalent of the paper's
		// cross-product construction (§3.4.2). In conditional mode it
		// is not an error for both operands to occur; under `strict`,
		// surplus operand events become violations, which distinguishes
		// exclusive or.
		start, end := g.newState(), g.newState()
		for _, sub := range x.Exprs {
			f, err := b.compileExpr(g, sub)
			if err != nil {
				return frag{}, err
			}
			g.addEps(start, f.start)
			g.addEps(f.end, end)
		}
		return frag{start, end}, nil

	case *spec.Optional:
		inner, err := b.compileExpr(g, x.Expr)
		if err != nil {
			return frag{}, err
		}
		start, end := g.newState(), g.newState()
		g.addEps(start, inner.start)
		g.addEps(inner.end, end)
		g.addEps(start, end)
		return frag{start, end}, nil

	case *spec.ATLeast:
		// ATLEAST(n, e₁…eₖ): at least n occurrences drawn from the
		// events, in any order; further occurrences allowed.
		cur := g.newState()
		start := cur
		for i := 0; i < x.Min; i++ {
			next := g.newState()
			for _, sub := range x.Exprs {
				f, err := b.compileExpr(g, sub)
				if err != nil {
					return frag{}, err
				}
				g.addEps(cur, f.start)
				g.addEps(f.end, next)
			}
			cur = next
		}
		for _, sub := range x.Exprs {
			f, err := b.compileExpr(g, sub)
			if err != nil {
				return frag{}, err
			}
			g.addEps(cur, f.start)
			g.addEps(f.end, cur)
		}
		return frag{start, cur}, nil

	case *spec.AssertionSite, *spec.FunctionEvent, *spec.FieldAssignEvent, *spec.InCallStack:
		sym, err := b.symbolFor(e)
		if err != nil {
			return frag{}, err
		}
		s, t := g.newState(), g.newState()
		g.addEdge(s, sym, t)
		return frag{s, t}, nil

	default:
		return frag{}, fmt.Errorf("unsupported expression %T", e)
	}
}

// determinize performs subset construction with TESLA's conditional
// semantics: for non-site symbols in conditional mode, every NFA member may
// treat the event as irrelevant and stay put (subsequence matching), so the
// DFA move always includes the current members. In strict mode members
// without a matching edge die. Pure stay-only self-loops are omitted from
// the transition table so that libtesla's “ignore irrelevant events” path
// handles them without work; explicit self-loops (ATLEAST repetition) are
// kept so each occurrence is observable.
func (b *builder) determinize(g *nfaGraph, strict bool) {
	auto := b.auto
	nsyms := len(auto.Symbols)
	auto.Trans = make([]core.TransitionSet, nsyms)

	// Subsets are canonicalised: members without outgoing symbol edges
	// cannot influence any future move, so they are dropped and only
	// their contribution to the cleanup decision (pre-site or final) is
	// kept as flags. Without this, constructs like ATLEAST(0, e₁…eₖ)
	// accumulate completed fragment ends and the subset count explodes
	// combinatorially.
	type dstate struct {
		members []int
		preSite bool
		final   bool
		id      uint32
	}
	canon := func(set []int) dstate {
		closed := g.closure(set)
		d := dstate{}
		for _, m := range closed {
			if g.preSite[m] {
				d.preSite = true
			}
			if m == g.final {
				d.final = true
			}
			if len(g.states[m].edges) > 0 {
				d.members = append(d.members, m)
			}
		}
		return d
	}
	keyOf := func(d dstate) string {
		var sb strings.Builder
		for i, s := range d.members {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", s)
		}
		fmt.Fprintf(&sb, "|%v%v", d.preSite, d.final)
		return sb.String()
	}

	index := map[string]uint32{}
	var order []dstate

	// DFA states are numbered from 1; 0 is the pre-init state.
	intern := func(d dstate) uint32 {
		k := keyOf(d)
		if id, ok := index[k]; ok {
			return id
		}
		d.id = uint32(len(order) + 1)
		index[k] = d.id
		order = append(order, d)
		return d.id
	}
	startID := intern(canon([]int{g.start}))
	auto.Start = startID

	for i := 0; i < len(order); i++ {
		d := order[i]
		for sym := 0; sym < nsyms; sym++ {
			if sym == boundBeginID || sym == boundEndID {
				continue
			}
			var explicit, next []int
			for _, m := range d.members {
				moved := false
				for _, e := range g.states[m].edges {
					if e.sym == sym {
						explicit = append(explicit, e.to)
						moved = true
					}
				}
				if sym != siteSymbolID && !strict {
					next = append(next, m)
				} else if strict && !moved && sym != siteSymbolID {
					// member dies in strict mode
					continue
				}
			}
			next = append(next, explicit...)
			if len(next) == 0 {
				continue // no transition: required → error, else ignored
			}
			succ := canon(next)
			// Dying subsets can lose the pre-site/final flags the
			// current state carries; conditional semantics keep the
			// run's bypass options open.
			if !strict && sym != siteSymbolID {
				succ.preSite = succ.preSite || d.preSite
				succ.final = succ.final || d.final
			}
			succID := intern(succ)
			if succID == d.id && len(explicit) == 0 {
				// Stay-only self-loop: leave it to the store's
				// irrelevant-event path.
				continue
			}
			auto.Trans[sym] = append(auto.Trans[sym], core.Transition{
				From:    d.id,
				To:      succID,
				KeyMask: auto.Symbols[sym].ProvidesMask,
			})
		}
	}

	// States: 0 (pre-init) + DFA states + accept.
	auto.Accept = uint32(len(order) + 1)
	auto.States = auto.Accept + 1

	// «init»: bound begin creates an instance in the start state.
	auto.Trans[boundBeginID] = core.TransitionSet{{
		From:  0,
		To:    startID,
		Flags: core.TransInit,
	}}

	// «cleanup»: bound end accepts from any state containing a pre-site
	// member (the bypass transitions) or the final NFA state.
	for _, d := range order {
		if d.preSite || d.final {
			auto.Trans[boundEndID] = append(auto.Trans[boundEndID], core.Transition{
				From:  d.id,
				To:    auto.Accept,
				Flags: core.TransCleanup,
			})
		}
	}
}
