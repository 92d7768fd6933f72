package staticcheck

import (
	"fmt"
	"sort"
	"strings"

	"tesla/internal/automata"
	"tesla/internal/ir"
)

// The liveness refinement pass: a second product walk whose states carry,
// besides the abstract monitor configuration, the compile-time-known
// values of non-escaped stack slots. Constant propagation prunes
// infeasible branches (so the zero-trip path of a counted loop stops
// blocking «eventually» proofs), syntactic ranking on counted loops
// drives widening (so the walk terminates without giving up precision at
// the first back edge), and every place the proof still fails is recorded
// as a structured Obligation — the missing □◇ fairness assumption —
// instead of a bare NEEDS-RUNTIME.
//
// Soundness rests on two VM facts mirrored exactly here: addresses are
// object-granular and bounds-checked (a computed pointer can never reach
// a stack slot whose address was not taken, so non-escaped alloca cells
// are unaliasable), and ir.EvalBin's semantics, which the VM executes
// (wrapping int64 arithmetic, 0/1 comparisons, division by zero is a VM
// error, not a value).

// cval is an abstract integer: a known compile-time constant or ⊤.
type cval struct {
	v  int64
	ok bool
}

func (c cval) String() string {
	if !c.ok {
		return "⊤"
	}
	return fmt.Sprintf("%d", c.v)
}

// cvalsKey canonicalises a call's abstract arguments for summary keys.
func cvalsKey(args []cval) string {
	if len(args) == 0 {
		return ""
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// countedLoop is a natural loop whose header tests a ranked counter slot
// against a loop-invariant bound and whose every cycle steps the counter
// toward the exit — the syntactic ranking function f(state) = |bound −
// counter| strictly decreases along every back edge (back-edge variance),
// so the loop terminates whenever the guard is exact.
type countedLoop struct {
	loop ir.NaturalLoop
	// counter is the alloca-site register of the ranked slot.
	counter int
	// step is the signed per-iteration increment.
	step int64
}

// fnInfo is the per-function static information the refinement pass
// needs, computed once per checker and shared across activations.
type fnInfo struct {
	f *ir.Func
	// allocas are the alloca-site destination registers.
	allocas map[int]bool
	// escaped are alloca registers whose address leaves the load/store
	// discipline (stored, passed, returned, compared…): their cells may
	// be written through pointers, so they are never tracked.
	escaped map[int]bool
	// loops maps header block → recognised counted loop.
	loops map[int]*countedLoop
}

func (c *checker) infoFor(f *ir.Func) *fnInfo {
	if fi, ok := c.infos[f.Name]; ok {
		return fi
	}
	fi := &fnInfo{f: f, allocas: map[int]bool{}, escaped: map[int]bool{}, loops: map[int]*countedLoop{}}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca {
				fi.allocas[in.Dst] = true
			}
		}
	}
	// Escape analysis: the only uses that keep a slot private are OpLoad
	// and OpStore with the slot register as the address operand.
	use := func(r int) {
		if fi.allocas[r] {
			fi.escaped[r] = true
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				// X is the address: a private use.
			case ir.OpStore:
				use(in.Y) // storing a slot's address publishes it
			case ir.OpFieldAddr, ir.OpFieldStore:
				use(in.X)
				use(in.Y)
			case ir.OpBin:
				use(in.X)
				use(in.Y)
			case ir.OpCall, ir.OpCallPtr:
				if in.Op == ir.OpCallPtr {
					use(in.X)
				}
				for _, a := range in.Args {
					use(a)
				}
			case ir.OpRet:
				if in.HasX {
					use(in.X)
				}
			case ir.OpCondBr:
				use(in.X)
			}
		}
	}
	for _, l := range f.Loops() {
		l := l
		if cl := recogniseCountedLoop(fi, l); cl != nil {
			fi.loops[l.Head] = cl
		}
	}
	c.infos[f.Name] = fi
	return fi
}

// recogniseCountedLoop matches the header-test-and-step shape the front
// end emits for `while (i < n) { …; i = i + c; }` (and its Le/Gt/Ge and
// mirrored-operand variants):
//
//   - the header computes cmp(load counter, bound) and conditionally
//     branches on it, with exactly one of the two targets outside the
//     loop;
//   - bound is a constant or a load of a slot never stored inside the
//     loop (loop-invariant);
//   - the counter slot is non-escaped; every store to it inside the loop
//     is `counter = load(counter) ± const`, every cycle back to the
//     header passes such a store, and the step's sign moves the counter
//     toward the exit under the continue condition.
func recogniseCountedLoop(fi *fnInfo, l ir.NaturalLoop) *countedLoop {
	f := fi.f
	head := f.Blocks[l.Head]
	if len(head.Instrs) == 0 {
		return nil
	}
	term := head.Instrs[len(head.Instrs)-1]
	if term.Op != ir.OpCondBr {
		return nil
	}
	in1, in2 := l.Contains(term.Blk1), l.Contains(term.Blk2)
	if in1 == in2 {
		return nil // both targets in (or out of) the loop: not the shape
	}

	// Local def map for the header block.
	defs := map[int]ir.Instr{}
	for _, in := range head.Instrs {
		switch in.Op {
		case ir.OpConst, ir.OpLoad, ir.OpBin:
			defs[in.Dst] = in
		}
	}
	cmp, ok := defs[term.X]
	if !ok || cmp.Op != ir.OpBin {
		return nil
	}
	kind := cmp.Imm2Bin()
	switch kind {
	case ir.BinLt, ir.BinLe, ir.BinGt, ir.BinGe:
	default:
		return nil
	}

	// Identify which comparison operand loads the counter slot: the one
	// whose slot is stored inside the loop. The other must be invariant.
	slotOf := func(r int) (int, bool) {
		d, ok := defs[r]
		if !ok || d.Op != ir.OpLoad || !fi.allocas[d.X] || fi.escaped[d.X] {
			return 0, false
		}
		return d.X, true
	}
	storedInLoop := func(slot int) bool {
		for _, b := range l.Blocks {
			for _, in := range f.Blocks[b].Instrs {
				if in.Op == ir.OpStore && in.X == slot {
					return true
				}
			}
		}
		return false
	}
	invariant := func(r int) bool {
		d, ok := defs[r]
		if !ok {
			return false
		}
		if d.Op == ir.OpConst {
			return true
		}
		if slot, ok := slotOf(r); ok {
			return !storedInLoop(slot)
		}
		return false
	}

	counter, mirrored := -1, false
	if slot, ok := slotOf(cmp.X); ok && storedInLoop(slot) && invariant(cmp.Y) {
		counter = slot
	} else if slot, ok := slotOf(cmp.Y); ok && storedInLoop(slot) && invariant(cmp.X) {
		counter, mirrored = slot, true
	}
	if counter < 0 {
		return nil
	}

	// Every store to the counter inside the loop must be a constant step
	// of one sign; blocks holding such a store must cut every cycle.
	step, stepBlocks, ok := counterSteps(fi, l, counter)
	if !ok {
		return nil
	}
	if cycleAvoids(f, l, stepBlocks) {
		return nil
	}

	// Back-edge variance: the step must move the counter toward the
	// exit under the continue condition. Normalise to "loop continues
	// while counter REL bound".
	rel := kind
	if mirrored {
		rel = swapCmp(rel)
	}
	if !in1 { // the true edge leaves the loop: continue on the negation
		rel = negateCmp(rel)
	}
	switch rel {
	case ir.BinLt, ir.BinLe:
		if step <= 0 {
			return nil
		}
	case ir.BinGt, ir.BinGe:
		if step >= 0 {
			return nil
		}
	}
	return &countedLoop{loop: l, counter: counter, step: step}
}

// counterSteps checks every in-loop store to the counter slot is
// `counter = load(counter) ± const` (resolved within the storing block)
// with one common sign, returning the first step value and the set of
// blocks containing a step.
func counterSteps(fi *fnInfo, l ir.NaturalLoop, counter int) (int64, map[int]bool, bool) {
	f := fi.f
	blocks := map[int]bool{}
	var step int64
	found := false
	for _, bi := range l.Blocks {
		defs := map[int]ir.Instr{}
		for _, in := range f.Blocks[bi].Instrs {
			switch in.Op {
			case ir.OpConst, ir.OpLoad, ir.OpBin:
				defs[in.Dst] = in
			case ir.OpStore:
				if in.X != counter {
					continue
				}
				d, ok := defs[in.Y]
				if !ok || d.Op != ir.OpBin {
					return 0, nil, false
				}
				var s int64
				switch d.Imm2Bin() {
				case ir.BinAdd:
					s = 1
				case ir.BinSub:
					s = -1
				default:
					return 0, nil, false
				}
				ld, lok := defs[d.X]
				cst, cok := defs[d.Y]
				if !lok || !cok || ld.Op != ir.OpLoad || ld.X != counter || cst.Op != ir.OpConst {
					return 0, nil, false
				}
				s *= cst.Imm
				if s == 0 {
					return 0, nil, false
				}
				if found && (s > 0) != (step > 0) {
					return 0, nil, false
				}
				if !found {
					step = s
				}
				found = true
				blocks[bi] = true
			}
		}
	}
	return step, blocks, found
}

// cycleAvoids reports whether some cycle through the loop header skips
// every step block: flood from the header through loop blocks minus the
// step blocks and see whether a latch is still reachable.
func cycleAvoids(f *ir.Func, l ir.NaturalLoop, stepBlocks map[int]bool) bool {
	latch := map[int]bool{}
	for _, b := range l.Latches {
		latch[b] = true
	}
	seen := map[int]bool{}
	stack := []int{l.Head}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] || stepBlocks[b] {
			continue
		}
		seen[b] = true
		if latch[b] {
			return true
		}
		for _, s := range f.Succs(b) {
			if l.Contains(s) && !seen[s] {
				stack = append(stack, s)
			}
		}
	}
	return false
}

func swapCmp(k ir.BinKind) ir.BinKind {
	switch k {
	case ir.BinLt:
		return ir.BinGt
	case ir.BinLe:
		return ir.BinGe
	case ir.BinGt:
		return ir.BinLt
	default:
		return ir.BinLe
	}
}

func negateCmp(k ir.BinKind) ir.BinKind {
	switch k {
	case ir.BinLt:
		return ir.BinGe
	case ir.BinLe:
		return ir.BinGt
	case ir.BinGt:
		return ir.BinLe
	default:
		return ir.BinLt
	}
}

// frame is the value half of a refined product state: block-local
// register constants plus the known values of the activation's private
// stack slots. nil frames (safety pass) are inert.
type frame struct {
	info *fnInfo
	// regs maps virtual registers to known constants; reset at block
	// entry (cross-block dataflow goes through allocas at -O0).
	regs map[int]int64
	// cells maps non-escaped alloca-site registers to known slot values;
	// absence means ⊤.
	cells map[int]int64
}

func newFrame(info *fnInfo) *frame {
	return &frame{info: info, regs: map[int]int64{}, cells: map[int]int64{}}
}

func (fr *frame) reg(r int) cval {
	v, ok := fr.regs[r]
	return cval{v, ok}
}

// enterBlock clones the frame for a successor block, dropping the
// block-local register constants.
func (fr *frame) enterBlock() *frame {
	nf := &frame{info: fr.info, regs: map[int]int64{}, cells: make(map[int]int64, len(fr.cells))}
	for k, v := range fr.cells {
		nf.cells[k] = v
	}
	return nf
}

// clone copies the frame including registers (same-block fan-out).
func (fr *frame) clone() *frame {
	nf := &frame{info: fr.info, regs: make(map[int]int64, len(fr.regs)), cells: make(map[int]int64, len(fr.cells))}
	for k, v := range fr.regs {
		nf.regs[k] = v
	}
	for k, v := range fr.cells {
		nf.cells[k] = v
	}
	return nf
}

// key canonicalises the cells (the only cross-block value state).
func (fr *frame) key() string {
	if len(fr.cells) == 0 {
		return ""
	}
	ks := make([]int, 0, len(fr.cells))
	for k := range fr.cells {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = fmt.Sprintf("%d=%d", k, fr.cells[k])
	}
	return strings.Join(parts, ",")
}

// step applies one non-control instruction's value effect. It returns
// false when the instruction is statically guaranteed to abort the VM
// (division by zero): the path ends there.
func (fr *frame) step(in ir.Instr) bool {
	switch in.Op {
	case ir.OpConst:
		fr.regs[in.Dst] = in.Imm
	case ir.OpAlloca:
		// A fresh activation of the slot: the address register is not a
		// constant and the cell restarts unknown (declarations store
		// their initialiser right after).
		delete(fr.regs, in.Dst)
		delete(fr.cells, in.Dst)
	case ir.OpLoad:
		if v, ok := fr.cells[in.X]; ok && fr.info.allocas[in.X] && !fr.info.escaped[in.X] {
			fr.regs[in.Dst] = v
		} else {
			delete(fr.regs, in.Dst)
		}
	case ir.OpStore:
		if fr.info.allocas[in.X] && !fr.info.escaped[in.X] {
			if v, ok := fr.regs[in.Y]; ok {
				fr.cells[in.X] = v
			} else {
				delete(fr.cells, in.X)
			}
		}
		// A store through a computed or escaped address can only reach
		// escaped slots, globals or heap objects — none are tracked.
	case ir.OpBin:
		x, xok := fr.regs[in.X]
		y, yok := fr.regs[in.Y]
		kind := in.Imm2Bin()
		if (kind == ir.BinDiv || kind == ir.BinRem) && yok && y == 0 {
			return false // the VM reports division by zero and unwinds
		}
		if v, ok := ir.EvalBin(kind, x, y); ok && xok && yok {
			fr.regs[in.Dst] = v
		} else {
			delete(fr.regs, in.Dst)
		}
	default:
		// Address producers, heap allocation, calls: result unknown.
		if in.Dst >= 0 {
			delete(fr.regs, in.Dst)
		}
	}
	return true
}

// widenBudget is how many distinct value states a (block, monitor-state)
// pair may accumulate before generic widening collapses the cells to
// their common constants. Counted-loop headers never get that far: their
// ranked counter is widened on the second visit.
const widenBudget = 4

// blockHist tracks per-(block, monitor-key) arrivals for widening. Once
// widening starts, wide only ever loses entries, so the walk converges.
type blockHist struct {
	count int
	wide  map[int]int64
}

// widen intersects cells into the running widened value and returns the
// (shared-shape) result.
func (h *blockHist) widen(cells map[int]int64) map[int]int64 {
	if h.wide == nil {
		h.wide = make(map[int]int64, len(cells))
		for k, v := range cells {
			h.wide[k] = v
		}
	} else {
		for k, v := range h.wide {
			if cv, ok := cells[k]; !ok || cv != v {
				delete(h.wide, k)
			}
		}
	}
	out := make(map[int]int64, len(h.wide))
	for k, v := range h.wide {
		out[k] = v
	}
	return out
}

// dischargeSymbols lists the automaton symbols (excluding the bound
// events) with a move from any of the pending states — the events whose
// eventual occurrence would discharge the obligation.
func (c *checker) dischargeSymbols(pending automata.StateSet) []string {
	var out []string
	seen := map[string]bool{}
	for _, sym := range c.auto.Symbols {
		if sym == c.auto.BoundBegin() || sym == c.auto.BoundEnd() || seen[sym.Name] {
			continue
		}
		for _, q := range pending {
			if c.auto.HasMove(q, sym.ID) {
				seen[sym.Name] = true
				out = append(out, sym.Name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// fairnessFor renders the □◇ assumption that would discharge pending
// states: infinitely often (in every bound epoch), one of the discharge
// events occurs.
func fairnessFor(discharge []string) string {
	if len(discharge) == 0 {
		return ""
	}
	return "□◇ (" + strings.Join(discharge, " ∨ ") + ")"
}
