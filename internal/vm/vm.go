// Package vm interprets TESLA IR (internal/ir), standing in for native
// execution of LLVM-compiled code in the paper's pipeline. Instrumented
// modules contain calls to __tesla_* intrinsics which the VM routes to a
// monitor.Thread, so instrumentation overhead is real interpreted work —
// the property the build/run-time experiments (figures 10–13) measure.
package vm

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"tesla/internal/compiler"
	"tesla/internal/core"
	"tesla/internal/ir"
	"tesla/internal/monitor"
)

// Address encoding: allocation ID in the high bits, word offset in the low
// 24; function pointers live in a disjoint range above FnBase.
const (
	offsetBits = 24
	offsetMask = 1<<offsetBits - 1
	fnBase     = int64(1) << 60
)

// ErrMaxSteps is returned when execution exceeds the configured step budget.
var ErrMaxSteps = errors.New("vm: step limit exceeded")

// VM executes one linked module.
type VM struct {
	fnByName map[string]int
	fnIx     []*ir.Func // function-pointer table

	// syms resolves every OpCall, OpFnAddr and OpGlobalAddr once, indexed
	// by function, block and instruction: a call's callee index in fnIx or
	// a call* kind, a function pointer or a global's address, or unresolved.
	syms [][][]int64

	heap     []allocation
	freeList []int

	// Every frame's registers are a window of stack; sp is the top of the
	// innermost frame. allocas holds the alloca IDs of the live frames, each
	// frame's above the mark it took on entry. vals is lent to the monitor
	// as an intrinsic's argument list.
	stack   []int64
	sp      int
	allocas []int
	vals    []core.Value

	// Thread, when set, receives instrumentation events from __tesla_*
	// intrinsics. Running instrumented code without a Thread fails.
	Thread *monitor.Thread
	// Out receives print() output (nil discards).
	Out io.Writer
	// MaxSteps bounds the instructions one Run may execute (0 =
	// DefaultMaxSteps).
	MaxSteps int64

	// steps counts the current Run's instructions, which MaxSteps
	// bounds; prior those of the runs before it. Their sum is Steps.
	steps    int64
	prior    int64
	frames   []string // function-name stack for incallstack queries
	maxDepth int
}

type allocation struct {
	data []int64
	live bool
}

// DefaultMaxSteps bounds runaway programs.
const DefaultMaxSteps = 200_000_000

// DefaultMaxDepth bounds recursion.
const DefaultMaxDepth = 10_000

// An unresolved symbol fails only when its instruction runs. The other
// negative entries of VM.syms are the call targets that are not functions.
const (
	unresolved = -1 - iota
	callPrint
	callInert // a residual assertion-site pseudo-call
	callBoundBegin
	callBoundEnd
	callUpdate
	callSite
	callUnknownIntrinsic
)

// New prepares a VM for the module, resolving every symbol its code names.
func New(mod *ir.Module) *VM {
	vm := &VM{
		fnByName: map[string]int{},
		fnIx:     append([]*ir.Func(nil), mod.Funcs...),
		maxDepth: DefaultMaxDepth,
	}
	for i, f := range mod.Funcs {
		vm.fnByName[f.Name] = i
	}
	// Allocation 0 is reserved so that address 0 is NULL.
	vm.heap = append(vm.heap, allocation{})
	globals := map[string]int64{}
	for _, g := range mod.Globals {
		id := vm.alloc(1)
		vm.heap[id].data[0] = g.Init
		globals[g.Name] = int64(id) << offsetBits
	}
	vm.syms = make([][][]int64, len(mod.Funcs))
	for fi, f := range mod.Funcs {
		vm.syms[fi] = make([][]int64, len(f.Blocks))
		for bi, b := range f.Blocks {
			syms := make([]int64, len(b.Instrs))
			for i := range b.Instrs {
				syms[i] = vm.resolve(&b.Instrs[i], globals)
			}
			vm.syms[fi][bi] = syms
		}
	}
	return vm
}

// resolve gives the syms entry of one instruction.
func (vm *VM) resolve(in *ir.Instr, globals map[string]int64) int64 {
	fi, defined := vm.fnByName[in.Sym]
	switch in.Op {
	case ir.OpFnAddr:
		if defined {
			return fnBase + int64(fi)
		}
	case ir.OpGlobalAddr:
		if addr, ok := globals[in.Sym]; ok {
			return addr
		}
	case ir.OpCall:
		// Generated event translators are real functions named
		// __tesla_evt_*; only names with no definition are intrinsics.
		switch {
		case strings.HasPrefix(in.Sym, "__tesla") && !defined:
			return intrinsic(in.Sym)
		case in.Sym == "print":
			return callPrint
		case defined:
			return int64(fi)
		}
	}
	return unresolved
}

// intrinsic gives the call kind of a __tesla* callee with no definition.
func intrinsic(sym string) int64 {
	switch {
	case strings.HasPrefix(sym, compiler.SitePseudoFn):
		return callInert
	case sym == "__tesla_bound_begin":
		return callBoundBegin
	case sym == "__tesla_bound_end":
		return callBoundEnd
	case sym == "__tesla_update":
		return callUpdate
	case sym == "__tesla_site":
		return callSite
	}
	return callUnknownIntrinsic
}

// AttachThread wires instrumentation events to a monitor thread and gives
// the monitor access to the VM's call stack and memory.
func (vm *VM) AttachThread(th *monitor.Thread) {
	vm.Thread = th
	th.StackQuery = vm.InStack
	th.SetClock(vm.Steps)
}

// Load implements monitor.Memory over the VM heap.
func (vm *VM) Load(addr core.Value) (core.Value, bool) {
	v, err := vm.load(int64(addr))
	if err != nil {
		return 0, false
	}
	return core.Value(v), true
}

// InStack reports whether fn is on the interpreter's call stack.
func (vm *VM) InStack(fn string) bool {
	for _, f := range vm.frames {
		if f == fn {
			return true
		}
	}
	return false
}

// Steps returns the number of instructions executed so far, over every
// Run: it is the monitor's clock.
func (vm *VM) Steps() int64 { return vm.prior + vm.steps }

// Run executes the named function with the given arguments.
func (vm *VM) Run(fn string, args ...int64) (int64, error) {
	fi, ok := vm.fnByName[fn]
	if !ok {
		return 0, fmt.Errorf("vm: unknown function %q", fn)
	}
	vm.prior += vm.steps
	vm.steps = 0
	vm.reserve(vm.sp + len(args))
	copy(vm.stack[vm.sp:], args)
	return vm.call(fi, len(args))
}

// reserve grows the register stack to at least n words. Growing moves it,
// so a frame re-derives its registers after every call out.
func (vm *VM) reserve(n int) {
	if n > len(vm.stack) {
		grown := make([]int64, max(n, 2*len(vm.stack), 256))
		copy(grown, vm.stack)
		vm.stack = grown
	}
}

func (vm *VM) alloc(words int) int {
	if n := len(vm.freeList); n > 0 {
		id := vm.freeList[n-1]
		vm.freeList = vm.freeList[:n-1]
		a := &vm.heap[id]
		if cap(a.data) >= words {
			a.data = a.data[:words]
			for i := range a.data {
				a.data[i] = 0
			}
		} else {
			a.data = make([]int64, words)
		}
		a.live = true
		return id
	}
	vm.heap = append(vm.heap, allocation{data: make([]int64, words), live: true})
	return len(vm.heap) - 1
}

func (vm *VM) free(id int) {
	vm.heap[id].live = false
	vm.freeList = append(vm.freeList, id)
}

func (vm *VM) load(addr int64) (int64, error) {
	id := addr >> offsetBits
	off := addr & offsetMask
	if id <= 0 || id >= int64(len(vm.heap)) || !vm.heap[id].live || off >= int64(len(vm.heap[id].data)) {
		return 0, fmt.Errorf("vm: invalid load from %#x", addr)
	}
	return vm.heap[id].data[off], nil
}

func (vm *VM) store(addr, val int64) error {
	id := addr >> offsetBits
	off := addr & offsetMask
	if id <= 0 || id >= int64(len(vm.heap)) || !vm.heap[id].live || off >= int64(len(vm.heap[id].data)) {
		return fmt.Errorf("vm: invalid store to %#x", addr)
	}
	vm.heap[id].data[off] = val
	return nil
}

func (vm *VM) maxSteps() int64 {
	if vm.MaxSteps > 0 {
		return vm.MaxSteps
	}
	return DefaultMaxSteps
}

// call runs function fi in a new frame at the top of the register stack,
// whose first nargs words the caller has filled with the arguments. The
// frame, its allocas and the stack pointer unwind however it returns.
func (vm *VM) call(fi, nargs int) (int64, error) {
	f := vm.fnIx[fi]
	if len(vm.frames) >= vm.maxDepth {
		return 0, fmt.Errorf("vm: call depth exceeded in %s", f.Name)
	}
	base, mark := vm.sp, len(vm.allocas)
	vm.frames = append(vm.frames, f.Name)
	vm.reserve(base + max(nargs, f.NRegs))
	if nargs < f.NRegs {
		clear(vm.stack[base+nargs : base+f.NRegs])
	}
	vm.sp = base + f.NRegs
	ret, err := vm.exec(fi, base)
	for _, id := range vm.allocas[mark:] {
		vm.free(id)
	}
	vm.allocas = vm.allocas[:mark]
	vm.frames = vm.frames[:len(vm.frames)-1]
	vm.sp = base
	return ret, err
}

// exec interprets function fi on the frame whose registers start at base.
func (vm *VM) exec(fi, base int) (int64, error) {
	f, syms := vm.fnIx[fi], vm.syms[fi]
	regs := vm.stack[base:vm.sp]
	blk, ip := 0, 0
	limit := vm.maxSteps()
	for {
		if ip >= len(f.Blocks[blk].Instrs) {
			return 0, fmt.Errorf("vm: %s: block b%d fell off the end", f.Name, blk)
		}
		in := &f.Blocks[blk].Instrs[ip]
		vm.steps++
		if vm.steps > limit {
			return 0, ErrMaxSteps
		}

		switch in.Op {
		case ir.OpConst:
			regs[in.Dst] = in.Imm
		case ir.OpAlloca:
			id := vm.alloc(int(in.Imm))
			vm.allocas = append(vm.allocas, id)
			regs[in.Dst] = int64(id) << offsetBits
		case ir.OpAllocHeap:
			id := vm.alloc(in.Struct.Size())
			regs[in.Dst] = int64(id) << offsetBits
		case ir.OpLoad:
			v, lerr := vm.load(regs[in.X])
			if lerr != nil {
				return 0, fmt.Errorf("%s: %w", f.Name, lerr)
			}
			regs[in.Dst] = v
		case ir.OpStore:
			if serr := vm.store(regs[in.X], regs[in.Y]); serr != nil {
				return 0, fmt.Errorf("%s: %w", f.Name, serr)
			}
		case ir.OpFieldAddr:
			regs[in.Dst] = regs[in.X] + int64(in.Struct.Fields[in.Field].Offset)
		case ir.OpFieldStore:
			addr := regs[in.X] + int64(in.Struct.Fields[in.Field].Offset)
			switch in.Assign {
			case ir.AssignSet:
				if serr := vm.store(addr, regs[in.Y]); serr != nil {
					return 0, fmt.Errorf("%s: %w", f.Name, serr)
				}
			case ir.AssignAdd:
				old, lerr := vm.load(addr)
				if lerr != nil {
					return 0, fmt.Errorf("%s: %w", f.Name, lerr)
				}
				if serr := vm.store(addr, old+regs[in.Y]); serr != nil {
					return 0, fmt.Errorf("%s: %w", f.Name, serr)
				}
			case ir.AssignIncr:
				old, lerr := vm.load(addr)
				if lerr != nil {
					return 0, fmt.Errorf("%s: %w", f.Name, lerr)
				}
				if serr := vm.store(addr, old+1); serr != nil {
					return 0, fmt.Errorf("%s: %w", f.Name, serr)
				}
			}
		case ir.OpBin:
			v, ok := ir.EvalBin(in.Imm2Bin(), regs[in.X], regs[in.Y])
			if !ok {
				return 0, fmt.Errorf("%s: %w", f.Name, binError(in.Imm2Bin()))
			}
			regs[in.Dst] = v
		case ir.OpFnAddr:
			v := syms[blk][ip]
			if v == unresolved {
				return 0, fmt.Errorf("vm: unknown function %q", in.Sym)
			}
			regs[in.Dst] = v
		case ir.OpGlobalAddr:
			addr := syms[blk][ip]
			if addr == unresolved {
				return 0, fmt.Errorf("vm: unknown global %q", in.Sym)
			}
			regs[in.Dst] = addr
		case ir.OpCall:
			v, cerr := vm.dispatchCall(in, syms[blk][ip], base)
			if cerr != nil {
				return 0, cerr
			}
			regs = vm.stack[base:vm.sp]
			regs[in.Dst] = v
		case ir.OpCallPtr:
			fp := regs[in.X]
			idx := fp - fnBase
			if idx < 0 || idx >= int64(len(vm.fnIx)) {
				return 0, fmt.Errorf("vm: %s: indirect call through bad pointer %#x", f.Name, fp)
			}
			v, cerr := vm.callWith(int(idx), in.Args, base)
			if cerr != nil {
				return 0, cerr
			}
			regs = vm.stack[base:vm.sp]
			regs[in.Dst] = v
		case ir.OpBr:
			blk, ip = in.Blk1, 0
			continue
		case ir.OpCondBr:
			if regs[in.X] != 0 {
				blk = in.Blk1
			} else {
				blk = in.Blk2
			}
			ip = 0
			continue
		case ir.OpRet:
			if in.HasX {
				return regs[in.X], nil
			}
			return 0, nil
		default:
			return 0, fmt.Errorf("vm: %s: bad opcode %d", f.Name, int(in.Op))
		}
		ip++
	}
}

// callWith calls function fi with the arguments in the given registers of
// the frame at base.
func (vm *VM) callWith(fi int, args []int, base int) (int64, error) {
	vm.reserve(vm.sp + len(args))
	for i, a := range args {
		vm.stack[vm.sp+i] = vm.stack[base+a]
	}
	return vm.call(fi, len(args))
}

// dispatchCall handles direct calls, resolved to target by New: user
// functions, builtins and TESLA intrinsics inserted by the instrumenter.
func (vm *VM) dispatchCall(in *ir.Instr, target int64, base int) (int64, error) {
	if target >= 0 {
		return vm.callWith(int(target), in.Args, base)
	}
	switch target {
	case unresolved:
		return 0, fmt.Errorf("vm: call to undefined function %q", in.Sym)
	case callPrint:
		if vm.Out != nil {
			vals := make([]interface{}, len(in.Args))
			for i, a := range in.Args {
				vals[i] = vm.stack[base+a]
			}
			fmt.Fprintln(vm.Out, vals...)
		}
		return 0, nil
	case callInert:
		// Residual assertion-site pseudo-calls in uninstrumented builds
		// are inert.
		return 0, nil
	}
	th := vm.Thread
	if th == nil {
		return 0, fmt.Errorf("vm: instrumented code (%s) without an attached monitor thread", in.Sym)
	}
	vals := vm.vals[:0]
	for _, a := range in.Args {
		vals = append(vals, core.Value(vm.stack[base+a]))
	}
	vm.vals = vals
	switch target {
	case callBoundBegin:
		return 0, th.BoundBegin(int(in.Imm))
	case callBoundEnd:
		return 0, th.BoundEnd(int(in.Imm))
	case callUpdate:
		return 0, th.Deliver(int(in.Imm>>16), int(in.Imm&0xffff), vals...)
	case callSite:
		return 0, th.SiteByIndex(int(in.Imm), vals...)
	}
	return 0, fmt.Errorf("vm: unknown TESLA intrinsic %q", in.Sym)
}

// binError is the VM's error for a binary operation ir.EvalBin gives no
// value.
func binError(op ir.BinKind) error {
	switch op {
	case ir.BinDiv:
		return errors.New("vm: division by zero")
	case ir.BinRem:
		return errors.New("vm: modulo by zero")
	}
	return fmt.Errorf("vm: bad binary op %d", int(op))
}
