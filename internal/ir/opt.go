package ir

// Optimize performs the post-instrumentation clean-up pass standing in for
// `opt -O2` in the paper's pipeline (§4.2: TESLA instruments unoptimised IR
// and optimises afterwards, since instrumentation is not robust in the
// presence of inlining). It removes instructions whose results are unused
// (the front-end emits temporaries freely) and folds constant conditional
// branches. Virtual registers are single-assignment for temporaries, so a
// use count is sufficient for liveness.
//
// Functions are immutable once compiled: Optimize writes no *Func it is
// given. It replaces m.Funcs[i] with OptimizeFunc's result, so the caller's
// module must own its Funcs slice.
func Optimize(m *Module) {
	for i, f := range m.Funcs {
		m.Funcs[i] = OptimizeFunc(f)
	}
}

// OptimizeFunc returns f without its dead instructions: f itself when
// nothing is dead, otherwise a new function. Blocks that lose nothing are
// shared with f; f is never written.
func OptimizeFunc(f *Func) *Func {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	// dead flags instructions in block order across the whole function.
	dead := make([]bool, n)
	used := make([]int, f.NRegs)
	escaped := make([]bool, f.NRegs)
	isAlloca := make([]bool, f.NRegs)
	mark := func(r int) {
		if r >= 0 && r < len(used) {
			used[r]++
		}
	}
	escape := func(r int) {
		mark(r)
		if r >= 0 && r < len(escaped) {
			escaped[r] = true
		}
	}
	deadAlloca := func(r int) bool {
		return r >= 0 && r < len(isAlloca) && isAlloca[r] && !escaped[r]
	}
	ndead := 0
	for {
		// Use counts over the live instructions; escaped tracks allocas
		// whose address reaches anything but a plain store — stores into
		// the others are dead (dead-local elimination).
		clear(used)
		clear(escaped)
		clear(isAlloca)
		i := 0
		for _, b := range f.Blocks {
			for j := range b.Instrs {
				i++
				if dead[i-1] {
					continue
				}
				switch in := &b.Instrs[j]; in.Op {
				case OpAlloca:
					if in.Dst >= 0 && in.Dst < len(isAlloca) {
						isAlloca[in.Dst] = true
					}
				case OpConst, OpAllocHeap, OpFnAddr, OpGlobalAddr:
				case OpLoad, OpFieldAddr, OpCondBr:
					escape(in.X)
				case OpStore:
					// The address is used, but not escaped: a
					// store alone cannot keep an alloca alive.
					mark(in.X)
					escape(in.Y)
				case OpBin, OpFieldStore:
					escape(in.X)
					escape(in.Y)
				case OpCall, OpCallPtr:
					escape(in.X)
					for _, a := range in.Args {
						escape(a)
					}
				case OpRet:
					if in.HasX {
						escape(in.X)
					}
				}
			}
		}

		prev := ndead
		i = 0
		for _, b := range f.Blocks {
			for j := range b.Instrs {
				if !dead[i] {
					switch in := &b.Instrs[j]; in.Op {
					case OpConst, OpFnAddr, OpGlobalAddr, OpFieldAddr, OpAllocHeap, OpLoad, OpBin:
						// Pure producers: dead when the result is unused.
						dead[i] = in.Dst >= 0 && used[in.Dst] == 0
					case OpAlloca:
						dead[i] = in.Dst >= 0 && (used[in.Dst] == 0 || deadAlloca(in.Dst))
					case OpStore:
						// A store into a never-loaded local is dead.
						dead[i] = deadAlloca(in.X)
					}
					if dead[i] {
						ndead++
					}
				}
				i++
			}
		}
		if ndead == prev {
			break
		}
	}
	if ndead == 0 {
		return f
	}

	out := &Func{Name: f.Name, NParams: f.NParams, NRegs: f.NRegs, Blocks: make([]*Block, len(f.Blocks))}
	i := 0
	for bi, b := range f.Blocks {
		live := 0
		for j := range b.Instrs {
			if !dead[i+j] {
				live++
			}
		}
		if live == len(b.Instrs) {
			out.Blocks[bi] = b
			i += len(b.Instrs)
			continue
		}
		nb := &Block{Name: b.Name, Instrs: make([]Instr, 0, live)}
		for j := range b.Instrs {
			if !dead[i] {
				nb.Instrs = append(nb.Instrs, b.Instrs[j])
			}
			i++
		}
		out.Blocks[bi] = nb
	}
	return out
}
