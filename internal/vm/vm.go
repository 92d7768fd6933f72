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
	mod  *ir.Module
	fns  map[string]*ir.Func
	fnIx []*ir.Func // function-pointer table

	heap     []allocation
	freeList []int
	globals  map[string]int64 // name → address

	// Thread, when set, receives instrumentation events from __tesla_*
	// intrinsics. Running instrumented code without a Thread fails.
	Thread *monitor.Thread
	// Out receives print() output (nil discards).
	Out io.Writer
	// MaxSteps bounds execution (0 = DefaultMaxSteps).
	MaxSteps int64

	steps    int64
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

// New prepares a VM for the module.
func New(mod *ir.Module) *VM {
	vm := &VM{
		mod:      mod,
		fns:      map[string]*ir.Func{},
		globals:  map[string]int64{},
		maxDepth: DefaultMaxDepth,
	}
	for _, f := range mod.Funcs {
		vm.fns[f.Name] = f
		vm.fnIx = append(vm.fnIx, f)
	}
	// Allocation 0 is reserved so that address 0 is NULL.
	vm.heap = append(vm.heap, allocation{})
	for _, g := range mod.Globals {
		id := vm.alloc(1)
		vm.heap[id].data[0] = g.Init
		vm.globals[g.Name] = int64(id) << offsetBits
	}
	return vm
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

// Steps returns the number of instructions executed so far.
func (vm *VM) Steps() int64 { return vm.steps }

// FnAddr returns the function-pointer value for a named function.
func (vm *VM) FnAddr(name string) (int64, error) {
	for i, f := range vm.fnIx {
		if f.Name == name {
			return fnBase + int64(i), nil
		}
	}
	return 0, fmt.Errorf("vm: unknown function %q", name)
}

// Run executes the named function with the given arguments.
func (vm *VM) Run(fn string, args ...int64) (int64, error) {
	f := vm.fns[fn]
	if f == nil {
		return 0, fmt.Errorf("vm: unknown function %q", fn)
	}
	return vm.call(f, args)
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

func (vm *VM) call(f *ir.Func, args []int64) (ret int64, err error) {
	if len(vm.frames) >= vm.maxDepth {
		return 0, fmt.Errorf("vm: call depth exceeded in %s", f.Name)
	}
	vm.frames = append(vm.frames, f.Name)
	var frameAllocs []int
	defer func() {
		vm.frames = vm.frames[:len(vm.frames)-1]
		for _, id := range frameAllocs {
			vm.free(id)
		}
	}()

	regs := make([]int64, f.NRegs)
	copy(regs, args)

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
			frameAllocs = append(frameAllocs, id)
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
			v, aerr := vm.FnAddr(in.Sym)
			if aerr != nil {
				return 0, aerr
			}
			regs[in.Dst] = v
		case ir.OpGlobalAddr:
			addr, ok := vm.globals[in.Sym]
			if !ok {
				return 0, fmt.Errorf("vm: unknown global %q", in.Sym)
			}
			regs[in.Dst] = addr
		case ir.OpCall:
			v, cerr := vm.dispatchCall(in, regs)
			if cerr != nil {
				return 0, cerr
			}
			regs[in.Dst] = v
		case ir.OpCallPtr:
			fp := regs[in.X]
			idx := fp - fnBase
			if idx < 0 || idx >= int64(len(vm.fnIx)) {
				return 0, fmt.Errorf("vm: %s: indirect call through bad pointer %#x", f.Name, fp)
			}
			callArgs := make([]int64, len(in.Args))
			for i, a := range in.Args {
				callArgs[i] = regs[a]
			}
			v, cerr := vm.call(vm.fnIx[idx], callArgs)
			if cerr != nil {
				return 0, cerr
			}
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

// dispatchCall handles direct calls: user functions, builtins and TESLA
// intrinsics inserted by the instrumenter.
func (vm *VM) dispatchCall(in *ir.Instr, regs []int64) (int64, error) {
	// Generated event translators are real functions named __tesla_evt_*;
	// only names with no definition are intrinsics.
	if strings.HasPrefix(in.Sym, "__tesla") && vm.fns[in.Sym] == nil {
		return vm.teslaIntrinsic(in, regs)
	}
	switch in.Sym {
	case "print":
		if vm.Out != nil {
			vals := make([]interface{}, len(in.Args))
			for i, a := range in.Args {
				vals[i] = regs[a]
			}
			fmt.Fprintln(vm.Out, vals...)
		}
		return 0, nil
	}
	f := vm.fns[in.Sym]
	if f == nil {
		return 0, fmt.Errorf("vm: call to undefined function %q", in.Sym)
	}
	callArgs := make([]int64, len(in.Args))
	for i, a := range in.Args {
		callArgs[i] = regs[a]
	}
	return vm.call(f, callArgs)
}

func (vm *VM) teslaIntrinsic(in *ir.Instr, regs []int64) (int64, error) {
	// Residual assertion-site pseudo-calls in uninstrumented builds are
	// inert.
	if strings.HasPrefix(in.Sym, compiler.SitePseudoFn) {
		return 0, nil
	}
	th := vm.Thread
	if th == nil {
		return 0, fmt.Errorf("vm: instrumented code (%s) without an attached monitor thread", in.Sym)
	}
	vals := make([]core.Value, len(in.Args))
	for i, a := range in.Args {
		vals[i] = core.Value(regs[a])
	}
	switch {
	case in.Sym == "__tesla_bound_begin":
		return 0, th.BoundBegin(int(in.Imm))
	case in.Sym == "__tesla_bound_end":
		return 0, th.BoundEnd(int(in.Imm))
	case in.Sym == "__tesla_update":
		return 0, th.Deliver(int(in.Imm>>16), int(in.Imm&0xffff), vals...)
	case in.Sym == "__tesla_site":
		return 0, th.SiteByIndex(int(in.Imm), vals...)
	default:
		return 0, fmt.Errorf("vm: unknown TESLA intrinsic %q", in.Sym)
	}
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
