// Package instrument rewrites IR modules so that program events drive
// automaton transitions, implementing §4.2 of the paper. It adds two kinds
// of code: program hooks (calls to generated functions at function entry and
// returns, around call sites, after structure-field stores and at assertion
// sites) and event translators (generated functions that check an event's
// static parameters and, on success, pass the dynamic variable–value
// mapping to libtesla via the __tesla_update intrinsic).
//
// Which hooks go where, and in what order, is the hook plan's decision
// (automata.Plan), which the static checker and the monitor read too:
// function events are instrumented in callee context when the target is
// defined in the program (hooks in its entry block and before its returns)
// and in caller context otherwise (hooks immediately before and after call
// sites) — or as forced by the caller/callee modifiers. Instrumentation
// runs on unoptimised IR; the optimiser runs afterwards (§4.2).
//
// IR is immutable once compiled (see ir.Func): Module and Strip write
// nothing they are given. They rebuild only the functions they change and
// share every other one with the input, so a unit's untouched functions
// are the same pointers before and after instrumentation.
package instrument

import (
	"fmt"
	"strings"

	"tesla/internal/automata"
	"tesla/internal/compiler"
	"tesla/internal/ir"
	"tesla/internal/spec"
)

// Options configures instrumentation.
type Options struct {
	// DefinedFns is the set of functions defined anywhere in the program
	// (across all modules), used to pick caller vs callee side for
	// unmodified events. Nil means "only this module's functions".
	DefinedFns map[string]bool
	// Suffix disambiguates generated translator names when several
	// modules are instrumented separately and then linked (the LLVM
	// equivalent relies on linkonce semantics).
	Suffix string
	// Elide names automata whose hooks are skipped entirely — the
	// payoff of a PROVABLY-SAFE verdict from internal/staticcheck. The
	// automata stay in the monitor's slice (indices compiled into the
	// remaining hooks are preserved); they simply never receive events,
	// and their assertion sites lower to constants. Elided counts are
	// recorded in Stats.
	Elide map[string]bool
	// Plan, when set, is the hook plan to instrument against, shared by
	// every module of one program; it must equal
	// automata.NewPlan(autos, DefinedFns). When nil, Module builds that
	// plan itself.
	Plan *automata.Plan
}

// Stats reports what the instrumenter did, for build reporting and the
// figure 10 experiment.
type Stats struct {
	Hooks       int // hook call sites inserted
	Translators int // event-translator functions generated
	Sites       int // assertion sites wired
	// ElidedHooks/ElidedSites count the hooks and sites that elision
	// (Options.Elide) suppressed; Hooks+ElidedHooks is invariant across
	// elision choices. Translators for elided automata are simply not
	// generated and are not counted.
	ElidedHooks int
	ElidedSites int
}

// Module instruments mod against the automata and returns the result; mod
// is not written. Only the functions the hook plan hooks or that hold
// assertion sites are rebuilt. Every other function is mod's own pointer,
// at its own index: the result lists mod's functions in order, then the
// generated event translators. The automata slice order must match the
// order used to construct the runtime monitor (indices are compiled in).
func Module(mod *ir.Module, autos []*automata.Automaton, opts Options) (*ir.Module, Stats, error) {
	plan := opts.Plan
	if plan == nil {
		defined := opts.DefinedFns
		if defined == nil {
			defined = map[string]bool{}
			for _, f := range mod.Funcs {
				defined[f.Name] = true
			}
		}
		plan = automata.NewPlan(autos, defined)
	}
	ins := &instrumenter{
		mod:    derive(mod),
		autos:  autos,
		plan:   plan,
		suffix: opts.Suffix,
		elide:  opts.Elide,
		genned: map[string]bool{},
	}
	for i, f := range mod.Funcs {
		if automata.Intrinsic(f.Name) || !ins.touches(f) {
			continue
		}
		ins.mod.Funcs[i] = ins.instrumentFunc(f)
	}
	return ins.mod, ins.stats, nil
}

// Strip removes residual assertion-site pseudo-calls, producing the
// "Default" (uninstrumented) build used as the experimental baseline. Like
// Module, it does not write mod: only functions holding sites are rebuilt,
// and every other function is mod's own pointer, at its own index.
func Strip(mod *ir.Module) *ir.Module {
	out := derive(mod)
	for i, f := range mod.Funcs {
		if !hasSite(f) {
			continue
		}
		nf := &ir.Func{Name: f.Name, NParams: f.NParams, NRegs: f.NRegs, Blocks: make([]*ir.Block, len(f.Blocks))}
		for bi, b := range f.Blocks {
			nb := &ir.Block{Name: b.Name, Instrs: make([]ir.Instr, len(b.Instrs))}
			for j := range b.Instrs {
				if in := &b.Instrs[j]; isSite(in) {
					nb.Instrs[j] = ir.Instr{Op: ir.OpConst, Dst: in.Dst, Imm: 0}
				} else {
					nb.Instrs[j] = *in
				}
			}
			nf.Blocks[bi] = nb
		}
		out.Funcs[i] = nf
	}
	return out
}

// derive returns a module sharing mod's types, globals and functions, with
// a Funcs slice of its own for a pass to replace and append entries in.
func derive(mod *ir.Module) *ir.Module {
	return &ir.Module{Name: mod.Name, Structs: mod.Structs, Globals: mod.Globals,
		Funcs: append([]*ir.Func(nil), mod.Funcs...)}
}

// isSite reports whether in is an assertion-site pseudo-call.
func isSite(in *ir.Instr) bool {
	return in.Op == ir.OpCall && strings.HasPrefix(in.Sym, compiler.SitePseudoFn)
}

// hasSite reports whether f holds an assertion site.
func hasSite(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for j := range b.Instrs {
			if isSite(&b.Instrs[j]) {
				return true
			}
		}
	}
	return false
}

type instrumenter struct {
	mod    *ir.Module
	autos  []*automata.Automaton
	plan   *automata.Plan
	suffix string
	elide  map[string]bool
	genned map[string]bool
	stats  Stats
}

// touches reports whether instrumentation changes f: the plan hooks its
// entry, its returns, or a call or field store in it, or f holds an
// assertion site. Elided hooks count too, since their stats are kept.
func (ins *instrumenter) touches(f *ir.Func) bool {
	if len(ins.plan.Entry(f.Name, f.NParams)) > 0 || len(ins.plan.Return(f.Name, f.NParams)) > 0 {
		return true
	}
	for _, b := range f.Blocks {
		for j := range b.Instrs {
			switch in := &b.Instrs[j]; in.Op {
			case ir.OpCall:
				if isSite(in) || len(ins.plan.BeforeCall(in.Sym, len(in.Args))) > 0 ||
					len(ins.plan.AfterCall(in.Sym, len(in.Args))) > 0 {
					return true
				}
			case ir.OpFieldStore:
				if len(ins.plan.FieldStore(in.Struct.Name, in.Struct.Fields[in.Field].Name, in.Assign)) > 0 {
					return true
				}
			}
		}
	}
	return false
}

// instrumentFunc returns a new function: f with the plan's hooks, in the
// plan's order. At entry: bound begins, then events, then call-kind bound
// ends. Before each return: events, then return-kind bound ends, then
// return-kind bound begins. Around each call site and after each field
// store: the events observed there.
func (ins *instrumenter) instrumentFunc(src *ir.Func) *ir.Func {
	f := &ir.Func{Name: src.Name, NParams: src.NParams, NRegs: src.NRegs, Blocks: make([]*ir.Block, len(src.Blocks))}
	var entry []ir.Instr
	for _, h := range ins.plan.Entry(f.Name, f.NParams) {
		ins.hook(&entry, f, h, paramRegs)
	}
	ret := ins.plan.Return(f.Name, f.NParams)
	for _, h := range ret {
		// Generate exit translators before walking the body, so the
		// module's function order does not depend on where f returns.
		if h.Kind == automata.HookEvent && !ins.elide[ins.autos[h.Auto].Name] {
			ins.translator(h.Auto, h.Sym)
		}
	}

	for bi, blk := range src.Blocks {
		out := make([]ir.Instr, 0, len(blk.Instrs))
		if bi == 0 {
			out = append(out, entry...)
		}
		for j := range blk.Instrs {
			switch in := &blk.Instrs[j]; in.Op {
			case ir.OpRet:
				for _, h := range ret {
					// Exit translators take the return value last.
					ins.hook(&out, f, h, func(n int) []int {
						retArg := in.X
						if !in.HasX {
							retArg = f.NewReg()
							out = append(out, ir.Instr{Op: ir.OpConst, Dst: retArg, Imm: 0})
						}
						return append(paramRegs(n), retArg)
					})
				}
				out = append(out, *in)

			case ir.OpCall:
				if isSite(in) {
					out = append(out, ins.siteCall(in))
					continue
				}
				args := func(n int) []int { return append([]int{}, in.Args[:n]...) }
				for _, h := range ins.plan.BeforeCall(in.Sym, len(in.Args)) {
					ins.hook(&out, f, h, args)
				}
				out = append(out, *in)
				for _, h := range ins.plan.AfterCall(in.Sym, len(in.Args)) {
					ins.hook(&out, f, h, func(n int) []int { return append(args(n), in.Dst) })
				}

			case ir.OpFieldStore:
				out = append(out, *in)
				// The translator receives (target, value); increments
				// pass a dummy value.
				val := in.Y
				if in.Assign == ir.AssignIncr {
					val = in.X
				}
				st := in.Struct
				for _, h := range ins.plan.FieldStore(st.Name, st.Fields[in.Field].Name, in.Assign) {
					ins.hook(&out, f, h, func(int) []int { return []int{in.X, val} })
				}

			default:
				out = append(out, *in)
			}
		}
		f.Blocks[bi] = &ir.Block{Name: blk.Name, Instrs: out}
	}
	return f
}

// hook lowers one planned hook in f to calls appended to *out, counting
// the calls elision suppresses instead. A bound hook calls its slot's
// intrinsic once per automaton sharing the slot. An event hook calls its
// translator with args(n), n being the symbol's argument-pattern count;
// args runs after the call's result register is allocated and may itself
// append to *out.
func (ins *instrumenter) hook(out *[]ir.Instr, f *ir.Func, h automata.Hook, args func(n int) []int) {
	if h.Kind != automata.HookEvent {
		sym := "__tesla_bound_begin"
		if h.Kind == automata.HookBoundEnd {
			sym = "__tesla_bound_end"
		}
		for _, ai := range h.Autos {
			if ins.elide[ins.autos[ai].Name] {
				ins.stats.ElidedHooks++
				continue
			}
			ins.stats.Hooks++
			*out = append(*out, ir.Instr{Op: ir.OpCall, Dst: f.NewReg(), Sym: sym, Imm: int64(h.Slot)})
		}
		return
	}
	if ins.elide[ins.autos[h.Auto].Name] {
		ins.stats.ElidedHooks++
		return
	}
	ins.stats.Hooks++
	call := ir.Instr{Op: ir.OpCall, Dst: f.NewReg(), Sym: ins.translator(h.Auto, h.Sym)}
	call.Args = args(len(h.Sym.Args))
	*out = append(*out, call)
}

func paramRegs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// siteCall replaces a __tesla_inline_assertion pseudo-call with a call to
// the __tesla_site intrinsic for the matching automaton. Assertions with no
// automaton in this build, or an elided one, are removed (their Dst is fed
// a constant).
func (ins *instrumenter) siteCall(in *ir.Instr) ir.Instr {
	name := strings.TrimPrefix(in.Sym, compiler.SitePseudoFn+":")
	for ai, a := range ins.autos {
		if a.Name == name {
			if ins.elide[a.Name] {
				ins.stats.ElidedSites++
				break
			}
			ins.stats.Sites++
			return ir.Instr{
				Op:   ir.OpCall,
				Dst:  in.Dst,
				Sym:  "__tesla_site",
				Imm:  int64(ai),
				Args: in.Args,
				Line: in.Line,
			}
		}
	}
	return ir.Instr{Op: ir.OpConst, Dst: in.Dst, Imm: 0}
}

// translator returns (generating on first use) the event-translator
// function for (automaton, symbol). Translators are chains of basic blocks:
// first the static checks on event parameters, then — if they pass — a
// fixed-size key is populated with the dynamic variable–value mapping and
// passed to libtesla via __tesla_update (§4.2 “Event translators”).
func (ins *instrumenter) translator(autoIdx int, sym *automata.Symbol) string {
	name := fmt.Sprintf("__tesla_evt_%d_%d%s", autoIdx, sym.ID, ins.suffix)
	if ins.genned[name] {
		return name
	}
	ins.genned[name] = true
	ins.stats.Translators++

	var nparams int
	switch sym.Kind {
	case automata.KindFieldAssign:
		nparams = 2 // target, value
	case automata.KindFuncExit:
		nparams = len(sym.Args) + 1 // args..., ret
	default:
		nparams = len(sym.Args)
	}

	f := &ir.Func{Name: name, NParams: nparams}
	f.NRegs = nparams
	body := f.NewBlock("checks")
	fail := -1 // created on demand

	cur := body
	emit := func(in ir.Instr) {
		f.Blocks[cur].Instrs = append(f.Blocks[cur].Instrs, in)
	}
	konst := func(v int64) int {
		r := f.NewReg()
		emit(ir.Instr{Op: ir.OpConst, Dst: r, Imm: v})
		return r
	}
	failBlock := func() int {
		if fail < 0 {
			fail = f.NewBlock("fail")
			z := f.NewReg()
			f.Blocks[fail].Instrs = append(f.Blocks[fail].Instrs,
				ir.Instr{Op: ir.OpConst, Dst: z, Imm: 0},
				ir.Instr{Op: ir.OpRet, X: z, HasX: true})
		}
		return fail
	}
	// check branches to the next check block when cond holds, else fail.
	check := func(cond int) {
		next := f.NewBlock("check")
		emit(ir.Instr{Op: ir.OpCondBr, X: cond, Blk1: next, Blk2: failBlock()})
		cur = next
	}
	loadIndirect := func(reg int, indirect bool) int {
		if !indirect {
			return reg
		}
		r := f.NewReg()
		emit(ir.Instr{Op: ir.OpLoad, Dst: r, X: reg})
		return r
	}
	staticCheck := func(reg int, p spec.ArgPattern) {
		v := loadIndirect(reg, p.Indirect)
		switch p.Kind {
		case spec.PatConst:
			k := konst(p.Const)
			c := f.NewReg()
			emit(ir.Instr{Op: ir.OpBin, Dst: c, Imm: int64(ir.BinEq), X: v, Y: k})
			check(c)
		case spec.PatFlags:
			k := konst(p.Const)
			masked := f.NewReg()
			emit(ir.Instr{Op: ir.OpBin, Dst: masked, Imm: int64(ir.BinAnd), X: v, Y: k})
			c := f.NewReg()
			emit(ir.Instr{Op: ir.OpBin, Dst: c, Imm: int64(ir.BinEq), X: masked, Y: k})
			check(c)
		case spec.PatBitmask:
			k := konst(^p.Const)
			masked := f.NewReg()
			emit(ir.Instr{Op: ir.OpBin, Dst: masked, Imm: int64(ir.BinAnd), X: v, Y: k})
			z := konst(0)
			c := f.NewReg()
			emit(ir.Instr{Op: ir.OpBin, Dst: c, Imm: int64(ir.BinEq), X: masked, Y: z})
			check(c)
		}
	}

	// Static checks and duplicate-variable consistency.
	varReg := map[string]int{}
	varCheck := func(reg int, name string, indirect bool) int {
		v := loadIndirect(reg, indirect)
		if prev, ok := varReg[name]; ok {
			c := f.NewReg()
			emit(ir.Instr{Op: ir.OpBin, Dst: c, Imm: int64(ir.BinEq), X: v, Y: prev})
			check(c)
		} else {
			varReg[name] = v
		}
		return v
	}

	switch sym.Kind {
	case automata.KindFieldAssign:
		if p := sym.Target; p.Kind == spec.PatVar {
			varCheck(0, p.Var, p.Indirect)
		} else {
			staticCheck(0, p)
		}
		if sym.AssignOp != spec.OpIncr {
			if p := sym.Value; p.Kind == spec.PatVar {
				varCheck(1, p.Var, p.Indirect)
			} else {
				staticCheck(1, p)
			}
		}
	default:
		for i, p := range sym.Args {
			if p.Kind == spec.PatVar {
				varCheck(i, p.Var, p.Indirect)
			} else {
				staticCheck(i, p)
			}
		}
		if sym.Kind == automata.KindFuncExit && sym.Ret != nil {
			retReg := nparams - 1
			if p := *sym.Ret; p.Kind == spec.PatVar {
				varCheck(retReg, p.Var, p.Indirect)
			} else {
				staticCheck(retReg, p)
			}
		}
	}

	// Key population: capture values in capture order.
	var capArgs []int
	for _, c := range sym.Captures {
		var reg int
		switch c.Src {
		case automata.CapArg:
			reg = c.Index
		case automata.CapRet:
			reg = nparams - 1
		case automata.CapTarget:
			reg = 0
		case automata.CapValue:
			reg = 1
		default:
			continue
		}
		reg = loadIndirect(reg, c.Indirect)
		capArgs = append(capArgs, reg)
	}
	upd := f.NewReg()
	emit(ir.Instr{
		Op:   ir.OpCall,
		Dst:  upd,
		Sym:  "__tesla_update",
		Imm:  int64(autoIdx)<<16 | int64(sym.ID),
		Args: capArgs,
	})
	one := f.NewReg()
	emit(ir.Instr{Op: ir.OpConst, Dst: one, Imm: 1})
	emit(ir.Instr{Op: ir.OpRet, X: one, HasX: true})

	ins.mod.Funcs = append(ins.mod.Funcs, f)
	return name
}
