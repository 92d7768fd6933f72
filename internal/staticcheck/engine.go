package staticcheck

import (
	"fmt"
	"sort"
	"strings"

	"tesla/internal/automata"
	"tesla/internal/compiler"
	"tesla/internal/ir"
)

// config is the abstract monitor state for one automaton at one program
// point. The partial order is set inclusion on lo/hi with the scalar
// fields exact; paths are kept apart (no join), bounded by the per-block
// valve.
type config struct {
	// active: the assertion's bound is open on this path.
	active bool
	// delivered: has any event been delivered this bound epoch?
	// 0 = none, 1 = maybe, 2 = surely. Only touched automata receive the
	// «cleanup» event at bound exit, so Incomplete verdicts require it.
	delivered uint8
	// failed: a violation has definitely been reported on this path.
	failed bool
	// lo: possible DFA states of the general instance (empty key, created
	// by «init»). A superset of the truth; the general instance never
	// moves on key-binding events (it forks and stays).
	lo automata.StateSet
	// hi: superset of the states of every live instance, clones included.
	hi automata.StateSet
}

func (c config) key() string {
	return fmt.Sprintf("%t|%d|%t|%s|%s", c.active, c.delivered, c.failed, c.lo.Key(), c.hi.Key())
}

// absState is one explored product state: the monitor configuration plus
// (in the liveness refinement pass) the frame's known values. The safety
// pass runs with a nil frame and is behaviourally identical to the
// original single-pass checker.
type absState struct {
	cfg config
	fr  *frame
}

func (s absState) key() string {
	if s.fr == nil {
		return s.cfg.key()
	}
	return s.cfg.key() + "|" + s.fr.key()
}

// exitState is one deduplicated function exit: the monitor configuration
// at the return plus the abstract return value (⊤ in the safety pass).
type exitState struct {
	cfg config
	ret cval
}

type checker struct {
	mod  *ir.Module
	auto *automata.Automaton
	opts Options
	// refine enables the liveness value refinement: constant cells,
	// branch pruning and counted-loop widening.
	refine bool

	fns map[string]*ir.Func
	// plan is the instrumenter's hook plan restricted to this automaton:
	// the program points the walk abstracts over, in execution order.
	plan     *automata.Plan
	stackFns map[string]bool // functions named by incallstack symbols
	infos    map[string]*fnInfo
	// reachableFns are the functions reachable from the entry point via
	// direct calls — used to sharpen fairness diagnostics.
	reachableFns map[string]bool

	summaries map[string][]exitState

	bail       string          // non-empty: give up, NEEDS-RUNTIME
	bailBudget bool            // the bail was the maxConfigs valve, not a modelling gap
	preBail    bool            // bailed before the walk (strict/entry/indirect)
	reasons    map[string]bool // possible-violation findings
	failWhy    map[string]bool // guaranteed-violation findings
	obls       map[string]Obligation
	mayAbort   bool // an indirect hook load may abort the VM
	escapeNF   bool // a non-failed path exits via a VM error

	pruned    int             // infeasible branches cut by constant propagation
	loopNotes map[string]bool // counted loops proved terminating on explored paths

	graph *productGraph
}

func newChecker(mod *ir.Module, auto *automata.Automaton, opts Options, refine bool) *checker {
	c := &checker{
		mod:       mod,
		auto:      auto,
		opts:      opts,
		refine:    refine,
		fns:       map[string]*ir.Func{},
		plan:      automata.NewPlan([]*automata.Automaton{auto}, opts.DefinedFns),
		stackFns:  map[string]bool{},
		infos:     map[string]*fnInfo{},
		summaries: map[string][]exitState{},
		reasons:   map[string]bool{},
		failWhy:   map[string]bool{},
		obls:      map[string]Obligation{},
		loopNotes: map[string]bool{},
		graph:     newProductGraph(),
	}
	for _, f := range mod.Funcs {
		c.fns[f.Name] = f
	}
	for _, s := range c.plan.InCallStack(0) {
		c.stackFns[s.Fn] = true
	}
	return c
}

// checkOne classifies one automaton: the safety pass first (identical to
// the original checker), then — only when that pass is undecided and the
// program shape is modellable — the liveness refinement, which may
// upgrade the verdict with a termination/discharge proof. Where neither
// pass decides, the structured obligations (missing fairness assumptions)
// are attached to the NEEDS-RUNTIME result.
func checkOne(mod *ir.Module, auto *automata.Automaton, opts Options) *Result {
	c := newChecker(mod, auto, opts, false)
	res := c.run()
	if res.Verdict != NeedsRuntime || opts.NoLiveness || c.preBail || (c.bail != "" && !c.bailBudget) {
		c.attachObligations(res)
		return res
	}

	l := newChecker(mod, auto, opts, true)
	res2 := l.run()
	if l.bail == "" {
		if res2.Verdict == Safe || res2.Verdict == Failing {
			res2.Liveness = true
			res2.Proof = l.proofLines()
			return res2
		}
		l.attachObligations(res2)
		return res2
	}

	// The refinement bailed. A budget bail is an explicit obligation on
	// the safety verdict; any other bail cannot occur here (the program
	// shape was already walked by the safety pass), but be conservative.
	if c.bailBudget {
		c.addBudgetObligation(c.bail)
	}
	if l.bailBudget {
		c.addBudgetObligation(l.bail)
	}
	c.attachObligations(res)
	return res
}

// run is one full pass: pre-checks, the product walk from the entry
// point, and the verdict.
func (c *checker) run() *Result {
	res := &Result{Automaton: c.auto, graph: c.graph}

	if c.auto.Spec.Strict {
		c.preBail = true
		res.Verdict = NeedsRuntime
		res.Reasons = sortedReasons(map[string]bool{
			"strict automata are not modelled statically": true})
		return res
	}
	entry, ok := c.fns[c.opts.Entry]
	if !ok {
		c.preBail = true
		res.Verdict = NeedsRuntime
		res.Reasons = sortedReasons(map[string]bool{
			fmt.Sprintf("entry function %q is not defined", c.opts.Entry): true})
		return res
	}
	if fn := c.findIndirectCall(entry); fn != "" {
		c.preBail = true
		res.Verdict = NeedsRuntime
		res.Reasons = sortedReasons(map[string]bool{fmt.Sprintf(
			"indirect call (OpCallPtr) reachable in %s: callees unknown statically", fn): true})
		return res
	}
	c.reachableFns = c.mod.Reachable(c.opts.Entry)

	exits := c.analyzeFn(entry, map[string]bool{}, map[string]bool{}, config{}, nil)

	switch {
	case c.bail != "":
		res.Verdict = NeedsRuntime
		res.Reasons = sortedReasons(map[string]bool{c.bail: true})
	case len(c.reasons) == 0:
		res.Verdict = Safe
	default:
		allFail := len(exits) > 0
		for _, e := range exits {
			if !e.cfg.failed {
				allFail = false
			}
		}
		if allFail && !c.escapeNF && !c.mayAbort {
			res.Verdict = Failing
			res.Reasons = sortedReasons(c.failWhy)
		} else {
			res.Verdict = NeedsRuntime
			res.Reasons = sortedReasons(c.reasons)
		}
	}
	return res
}

// proofLines renders the refinement facts a liveness verdict rests on.
func (c *checker) proofLines() []string {
	set := map[string]bool{
		"liveness: every feasible path leaving the bound discharges its obligations (product-graph argument over the refined walk)": true,
	}
	if c.pruned > 0 {
		set[fmt.Sprintf("liveness: %d infeasible branch(es) pruned by constant propagation", c.pruned)] = true
	}
	for n := range c.loopNotes {
		set[n] = true
	}
	return sortedReasons(set)
}

func (c *checker) noteLoop(f *ir.Func, lp *countedLoop) {
	if len(c.loopNotes) >= 32 {
		return
	}
	c.loopNotes[fmt.Sprintf(
		"liveness: counted loop at %s/%s proved terminating (syntactic ranking on its counter slot, back-edge variance %+d)",
		f.Name, f.Blocks[lp.loop.Head].Name, lp.step)] = true
}

func (c *checker) bailf(format string, args ...interface{}) {
	if c.bail == "" {
		c.bail = fmt.Sprintf(format, args...)
	}
}

func (c *checker) flagPossible(format string, args ...interface{}) {
	if len(c.reasons) < 32 {
		c.reasons[fmt.Sprintf(format, args...)] = true
	}
}

func (c *checker) flagFailed(format string, args ...interface{}) {
	if len(c.failWhy) < 32 {
		c.failWhy[fmt.Sprintf(format, args...)] = true
	}
}

// obligationAt records a structured obligation: the states that may be
// stuck, the events that would move them, and the □◇ fairness assumption
// under which the assertion would discharge. fromKey anchors the dashed
// obligation edge in the product-graph rendering.
func (c *checker) obligationAt(kind, where, fromKey string, pending automata.StateSet) {
	if len(c.obls) >= 32 {
		return
	}
	names := c.dischargeSymbols(pending)
	discharge := map[string]bool{}
	for _, n := range names {
		discharge[n] = true
	}
	var unreachable []string
	seenFn := map[string]bool{}
	for _, sym := range c.auto.Symbols {
		if !discharge[sym.Name] || sym.Fn == "" || seenFn[sym.Fn] {
			continue
		}
		if (sym.Kind == automata.KindFuncEntry || sym.Kind == automata.KindFuncExit) &&
			!c.reachableFns[sym.Fn] {
			seenFn[sym.Fn] = true
			unreachable = append(unreachable, sym.Fn)
		}
	}
	sort.Strings(unreachable)
	fairness := fairnessFor(names)

	var detail string
	switch {
	case len(names) == 0:
		detail = fmt.Sprintf("%s: state(s) %s cannot be moved by any event: the obligation is undischargeable", where, pending)
	case kind == "site":
		detail = fmt.Sprintf("%s: the general instance may reach the assertion site in state(s) %s; assume %s before the site to discharge", where, pending, fairness)
	default:
		detail = fmt.Sprintf("%s: an instance may reach bound exit in state(s) %s without completing; assume %s within every bound epoch to discharge", where, pending, fairness)
	}
	if len(unreachable) > 0 {
		detail += fmt.Sprintf("; note %s never runs under %s, so the assumption cannot hold there",
			strings.Join(unreachable, ", "), c.opts.Entry)
	}
	ob := Obligation{Kind: kind, Where: where, Pending: pending, Discharge: names, Fairness: fairness, Detail: detail}
	c.obls[ob.id()] = ob
	label := fairness
	if label == "" {
		label = "undischargeable"
	}
	c.graph.obligation(fromKey, label)
}

func (c *checker) addBudgetObligation(why string) {
	ob := Obligation{
		Kind: "budget",
		Detail: fmt.Sprintf(
			"analysis budget exhausted before a proof (%s); raise staticcheck.DefaultMaxConfigs to let the checker decide", why),
	}
	c.obls[ob.id()] = ob
}

// attachObligations finalises a NEEDS-RUNTIME result with the sorted
// obligation set (decided verdicts carry none).
func (c *checker) attachObligations(res *Result) {
	if res.Verdict != NeedsRuntime || len(c.obls) == 0 {
		return
	}
	if c.bailBudget {
		c.addBudgetObligation(c.bail)
	}
	res.Obligations = sortObligations(c.obls)
}

// findIndirectCall scans the functions reachable from entry through direct
// calls for OpCallPtr. One indirect call defeats the whole analysis: the
// callee set is unknown, so any event could fire there.
func (c *checker) findIndirectCall(entry *ir.Func) string {
	seen := map[string]bool{}
	var visit func(f *ir.Func) string
	visit = func(f *ir.Func) string {
		if seen[f.Name] {
			return ""
		}
		seen[f.Name] = true
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpCallPtr:
					return f.Name
				case ir.OpCall:
					if g, ok := c.fns[in.Sym]; ok && !automata.Intrinsic(in.Sym) {
						if hit := visit(g); hit != "" {
							return hit
						}
					}
				}
			}
		}
		return ""
	}
	return visit(entry)
}

// apply advances a config over one event, recording possible and
// guaranteed violations.
func (c *checker) apply(cfg config, h automata.Hook, where string) config {
	from := cfg.key()
	label := ""
	switch h.Kind {
	case automata.HookBoundBegin:
		label = "«bound begin»"
		if cfg.active {
			c.bailf("bound re-opened while already open at %s: epochs would overlap", where)
			return cfg
		}
		cfg.active = true
		cfg.delivered = 0
		cfg.lo = automata.NewStateSet(c.auto.Start)
		cfg.hi = automata.NewStateSet(c.auto.Start)

	case automata.HookBoundEnd:
		label = "«bound end»"
		if !cfg.active {
			return cfg // runtime ignores bound exits with no open bound
		}
		if cfg.delivered > 0 {
			var pending automata.StateSet
			for _, q := range cfg.hi {
				if !c.auto.CanCleanup(q) {
					pending = append(pending, q)
				}
			}
			if len(pending) > 0 {
				c.flagPossible("%s: an instance may be in state %d at bound exit, which cannot accept «cleanup» (Incomplete)", where, pending[0])
				c.obligationAt("eventually", where, from, pending)
			}
			if cfg.delivered == 2 {
				stuck := true
				for _, q := range cfg.lo {
					if c.auto.CanCleanup(q) {
						stuck = false
						break
					}
				}
				if stuck {
					cfg.failed = true
					c.flagFailed("%s: the general instance is stuck in %s at bound exit: Incomplete on every such path", where, cfg.lo)
				}
			}
		}
		cfg.active = false
		cfg.delivered = 0
		cfg.lo, cfg.hi = nil, nil

	default:
		sym := h.Sym
		label = sym.Name
		if !cfg.active {
			return cfg // events outside the bound are ignored (lazy init)
		}
		if sym.IndirectAccess() {
			c.mayAbort = true
		}
		det := sym.Deterministic()
		moved := c.auto.DetStep(cfg.lo, sym.ID)
		if sym.ProvidesMask == 0 {
			if det {
				cfg.lo = moved
			} else {
				cfg.lo = cfg.lo.Union(moved)
			}
		}
		// mask != 0: the event forks a keyed clone; the general instance
		// stays put, so lo is unchanged.
		if sym.ProvidesMask == 0 && det {
			// AnyKey delivery that surely fires: every live instance takes
			// the conditional update, so the image is exact.
			cfg.hi = c.auto.DetStep(cfg.hi, sym.ID)
		} else {
			cfg.hi = c.auto.CondStep(cfg.hi, sym.ID)
		}
		if det {
			cfg.delivered = 2
		} else if cfg.delivered < 1 {
			cfg.delivered = 1
		}
	}
	c.graph.edge(from, cfg, label)
	return cfg
}

// applySite handles the assertion site: the plan's incallstack branches
// fire first for functions on the abstract call chain, then the required site
// symbol, whose rejection is the canonical violation.
func (c *checker) applySite(cfg config, stack map[string]bool, where string) config {
	if !cfg.active {
		// Outside the bound no instance exists and required events with
		// no live instances are ignored by libtesla.
		return cfg
	}
	for _, sym := range c.plan.InCallStack(0) {
		if stack[sym.Fn] {
			cfg = c.apply(cfg, automata.Hook{Kind: automata.HookEvent, Sym: sym}, where)
		}
	}
	from := cfg.key()
	site := c.auto.Site()
	var pending automata.StateSet
	for _, q := range cfg.lo {
		if !c.auto.HasMove(q, site.ID) {
			pending = append(pending, q)
		}
	}
	if len(pending) > 0 {
		c.flagPossible("%s: the general instance may be in state %d, which cannot accept the assertion site", where, pending[0])
		c.obligationAt("site", where, from, pending)
	}
	accepted := false
	for _, q := range cfg.hi {
		if c.auto.HasMove(q, site.ID) {
			accepted = true
			break
		}
	}
	if !accepted {
		cfg.failed = true
		c.flagFailed("%s: no live instance can accept the assertion site (states %s)", where, cfg.hi)
	}
	if len(c.auto.Vars) == 0 {
		// With no scope variables the site's key is empty and the general
		// instance itself takes the transition; every other instance also
		// receives the event, so both bounds take the exact image.
		cfg.lo = c.auto.DetStep(cfg.lo, site.ID)
		cfg.hi = c.auto.DetStep(cfg.hi, site.ID)
	} else {
		cfg.hi = c.auto.CondStep(cfg.hi, site.ID)
	}
	cfg.delivered = 2
	c.graph.edge(from, cfg, site.Name)
	return cfg
}

// stackKey canonicalises the incallstack-relevant part of the call chain.
func stackKey(stack map[string]bool) string {
	if len(stack) == 0 {
		return ""
	}
	keys := make([]string, 0, len(stack))
	for k := range stack {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// analyzeFn returns the exit states at f's returns when entered with
// entry (and, in the refinement pass, the abstract argument values).
// onChain is the set of functions on the concrete abstract call chain
// (recursion detection); stack is its projection onto incallstack-relevant
// functions (part of the summary key, and what sites consult).
func (c *checker) analyzeFn(f *ir.Func, onChain, stack map[string]bool, entry config, args []cval) []exitState {
	if c.bail != "" {
		return nil
	}
	key := f.Name + "|" + stackKey(stack) + "|" + entry.key() + "|" + cvalsKey(args)
	if exits, ok := c.summaries[key]; ok {
		return exits
	}
	if onChain[f.Name] {
		c.bailf("recursive call to %s: unbounded call chains are not modelled", f.Name)
		return nil
	}
	onChain[f.Name] = true
	addedStack := false
	if c.stackFns[f.Name] && !stack[f.Name] {
		stack[f.Name] = true
		addedStack = true
	}
	defer func() {
		delete(onChain, f.Name)
		if addedStack {
			delete(stack, f.Name)
		}
	}()

	cfg := entry
	for _, h := range c.plan.Entry(f.Name, f.NParams) {
		cfg = c.apply(cfg, h, f.Name)
	}
	retHooks := c.plan.Return(f.Name, f.NParams)
	if c.bail != "" {
		return nil
	}
	var fr *frame
	if c.refine {
		fr = newFrame(c.infoFor(f))
		for i, a := range args {
			if i < f.NParams && a.ok {
				fr.regs[i] = a.v
			}
		}
	}
	st := absState{cfg: cfg, fr: fr}

	type item struct {
		blk int
		st  absState
	}
	seen := make([]map[string]bool, len(f.Blocks))
	for i := range seen {
		seen[i] = map[string]bool{}
	}
	hist := make([]map[string]*blockHist, len(f.Blocks))
	var exits []exitState
	queue := []item{{0, st}}
	seen[0][st.key()] = true

	// Loops need no special casing in the safety pass: config transitions
	// are deterministic in the event sequence, so a terminating execution
	// whose config repeats at a loop head has the same continuation — and
	// the same exit config — as the first, already-explored visit.
	// Diverging executions never reach an exit and are outside every
	// verdict's quantifier. The refinement pass additionally carries
	// value state, which loops DO grow — widening (ranked counters first,
	// generic intersection after widenBudget visits) restores
	// termination of the walk without losing the trip-count facts that
	// make «eventually» provable.
	enqueue := func(cur, target int, st absState) {
		if c.refine && st.fr != nil {
			nf := st.fr.enterBlock()
			mk := st.cfg.key()
			if hist[target] == nil {
				hist[target] = map[string]*blockHist{}
			}
			h := hist[target][mk]
			if h == nil {
				h = &blockHist{}
				hist[target][mk] = h
			}
			h.count++
			if lp := st.fr.info.loops[target]; lp != nil && h.count > 1 {
				// Ranked counter: widen exactly the counter slot on
				// re-entry; the first visit's exact guard already proved
				// the trip-count facts, and recognition proved the loop
				// terminates.
				if _, tracked := nf.cells[lp.counter]; tracked {
					delete(nf.cells, lp.counter)
				}
				c.noteLoop(f, lp)
			} else if h.wide != nil || h.count > widenBudget {
				nf.cells = h.widen(nf.cells)
			}
			st.fr = nf
		}
		k := st.key()
		if seen[target][k] {
			return
		}
		if len(seen[target]) >= c.opts.maxConfigs {
			c.bailBudget = true
			c.bailf("abstract state explosion in %s (more than %d configurations per block)", f.Name, c.opts.maxConfigs)
			return
		}
		seen[target][k] = true
		queue = append(queue, item{target, st})
	}

	for len(queue) > 0 && c.bail == "" {
		it := queue[0]
		queue = queue[1:]
		cur := []absState{it.st}
		blk := f.Blocks[it.blk]

		for _, in := range blk.Instrs {
			if c.bail != "" {
				return nil
			}
			switch in.Op {
			case ir.OpRet:
				for _, s := range cur {
					cf := s.cfg
					for _, h := range retHooks {
						cf = c.apply(cf, h, f.Name)
					}
					ret := cval{}
					if c.refine {
						if in.HasX {
							ret = s.fr.reg(in.X)
						} else {
							ret = cval{0, true}
						}
					}
					exits = append(exits, exitState{cfg: cf, ret: ret})
				}
				cur = nil

			case ir.OpBr:
				for _, s := range cur {
					enqueue(it.blk, in.Blk1, s)
				}
				cur = nil

			case ir.OpCondBr:
				for _, s := range cur {
					if c.refine {
						if v := s.fr.reg(in.X); v.ok {
							// The branch is decided at compile time: the
							// other edge is infeasible on this path and
							// is pruned (this is what removes the
							// zero-trip path of a counted loop from an
							// «eventually» refutation).
							c.pruned++
							if v.v != 0 {
								enqueue(it.blk, in.Blk1, s)
							} else {
								enqueue(it.blk, in.Blk2, s)
							}
							continue
						}
					}
					enqueue(it.blk, in.Blk1, s)
					enqueue(it.blk, in.Blk2, s)
				}
				cur = nil

			case ir.OpCall:
				cur = c.applyCall(f, in, cur, onChain, stack)

			case ir.OpFieldStore:
				for i := range cur {
					cur[i].cfg = c.applyFieldStore(cur[i].cfg, in, f.Name)
				}

			default:
				if c.refine {
					alive := cur[:0]
					for _, s := range cur {
						if s.fr.step(in) {
							alive = append(alive, s)
						} else if !s.cfg.failed {
							// The instruction surely aborts the VM
							// (division by zero): the path ends without
							// completing, which blocks FAILING claims.
							c.escapeNF = true
						}
					}
					cur = alive
				}
			}
			if len(cur) == 0 {
				break
			}
			if len(cur) > c.opts.maxConfigs {
				c.bailBudget = true
				c.bailf("abstract state explosion in %s (more than %d parallel configurations)", f.Name, c.opts.maxConfigs)
				return nil
			}
		}
		// A block that ends without a terminator is unreachable IR; any
		// config still alive simply has no continuation.
	}
	if c.bail != "" {
		return nil
	}
	exits = dedupExits(exits)
	c.summaries[key] = exits
	return exits
}

// dedupExits collapses identical exit states so summaries stay small
// across call-chain fan-out.
func dedupExits(exits []exitState) []exitState {
	seen := map[string]bool{}
	out := exits[:0]
	for _, e := range exits {
		k := e.cfg.key() + "|" + e.ret.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// applyCall advances each state over one OpCall: assertion sites, direct
// calls into analysed callees (with caller-side hooks around them), and
// escapes into undefined functions (a VM error ends the path).
func (c *checker) applyCall(f *ir.Func, in ir.Instr, cur []absState, onChain, stack map[string]bool) []absState {
	where := fmt.Sprintf("%s (line %d)", f.Name, in.Line)
	clobber := func() {
		if c.refine {
			for i := range cur {
				delete(cur[i].fr.regs, in.Dst)
			}
		}
	}
	if strings.HasPrefix(in.Sym, compiler.SitePseudoFn) {
		name := strings.TrimPrefix(in.Sym, compiler.SitePseudoFn+":")
		clobber()
		if name != c.auto.Name {
			return cur // another assertion's site: no event for this automaton
		}
		for i := range cur {
			cur[i].cfg = c.applySite(cur[i].cfg, stack, where)
		}
		return cur
	}
	if automata.Intrinsic(in.Sym) {
		clobber() // the VM runs it: no hooks and no callee to follow
		return cur
	}

	pre := c.plan.BeforeCall(in.Sym, len(in.Args))
	for i := range cur {
		for _, h := range pre {
			cur[i].cfg = c.apply(cur[i].cfg, h, where)
		}
	}

	callee, defined := c.fns[in.Sym]
	if !defined {
		// The VM reports "call to undefined function" and unwinds: the
		// path ends here. A non-failed escape blocks FAILING verdicts.
		for _, s := range cur {
			if !s.cfg.failed {
				c.escapeNF = true
			}
		}
		return nil
	}

	post := c.plan.AfterCall(in.Sym, len(in.Args))
	var out []absState
	for _, s := range cur {
		var args []cval
		if c.refine {
			args = make([]cval, len(in.Args))
			for i, a := range in.Args {
				args[i] = s.fr.reg(a)
			}
		}
		rets := c.analyzeFn(callee, onChain, stack, s.cfg, args)
		if c.bail != "" {
			return nil
		}
		for _, ex := range rets {
			ns := absState{cfg: ex.cfg}
			if c.refine {
				nf := s.fr.clone()
				if ex.ret.ok {
					nf.regs[in.Dst] = ex.ret.v
				} else {
					delete(nf.regs, in.Dst)
				}
				ns.fr = nf
			}
			for _, h := range post {
				ns.cfg = c.apply(ns.cfg, h, where)
			}
			out = append(out, ns)
		}
	}
	return out
}

// applyFieldStore fires the field-assignment hooks the plan places after
// the store.
func (c *checker) applyFieldStore(cfg config, in ir.Instr, fname string) config {
	for _, h := range c.plan.FieldStore(in.Struct.Name, in.Struct.Fields[in.Field].Name, in.Assign) {
		cfg = c.apply(cfg, h, fmt.Sprintf("%s (line %d)", fname, in.Line))
	}
	return cfg
}
