// Package ir defines the intermediate representation the TESLA toolchain
// instruments. It stands in for LLVM IR in the paper's pipeline (§4.2): a
// typed, register-based representation produced by the C-subset front-end
// without optimisation (mutable locals live in allocas, as in `clang -O0`
// output, so no φ-nodes are needed), instrumented by internal/instrument,
// then lightly optimised and executed by internal/vm.
package ir

import "fmt"

// Opcode enumerates IR instructions.
type Opcode int

const (
	// OpConst: Dst = Imm.
	OpConst Opcode = iota
	// OpAlloca: Dst = address of a fresh stack slot (Imm = word count).
	OpAlloca
	// OpAllocHeap: Dst = address of a fresh heap object of Struct's size.
	OpAllocHeap
	// OpLoad: Dst = *X.
	OpLoad
	// OpStore: *X = Y.
	OpStore
	// OpFieldAddr: Dst = &X->field (Struct, Field index).
	OpFieldAddr
	// OpFieldStore: X->field op= Y, preserving the source-level
	// assignment operator (AssignKind) so the instrumenter can match
	// simple and compound assignment events distinctly.
	OpFieldStore
	// OpBin: Dst = X <Bin> Y.
	OpBin
	// OpCall: Dst = Sym(Args...).
	OpCall
	// OpCallPtr: Dst = (*X)(Args...) — indirect call through a function
	// pointer value.
	OpCallPtr
	// OpFnAddr: Dst = address of function Sym.
	OpFnAddr
	// OpGlobalAddr: Dst = address of global Sym.
	OpGlobalAddr
	// OpBr: unconditional branch to Blk1.
	OpBr
	// OpCondBr: branch to Blk1 if X != 0 else Blk2.
	OpCondBr
	// OpRet: return X (or 0 when HasX is false).
	OpRet
)

// BinKind enumerates binary operators.
type BinKind int

const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv
	BinRem
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	BinAnd // bitwise &
	BinOr  // bitwise |
	BinXor // bitwise ^
)

var binNames = [...]string{"add", "sub", "mul", "div", "rem", "eq", "ne",
	"lt", "le", "gt", "ge", "and", "or", "xor"}

func (b BinKind) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("bin%d", int(b))
}

// EvalBin is the semantics of a binary operator over words: wrapping int64
// arithmetic, comparisons yielding 0 or 1, bitwise logic. ok is false when
// the operation has no value — division or remainder by zero, or an
// unknown operator. The VM executes with it and the static checker folds
// constants with it.
func EvalBin(op BinKind, a, b int64) (v int64, ok bool) {
	switch op {
	case BinAdd:
		return a + b, true
	case BinSub:
		return a - b, true
	case BinMul:
		return a * b, true
	case BinDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case BinRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case BinEq:
		return b2i(a == b), true
	case BinNe:
		return b2i(a != b), true
	case BinLt:
		return b2i(a < b), true
	case BinLe:
		return b2i(a <= b), true
	case BinGt:
		return b2i(a > b), true
	case BinGe:
		return b2i(a >= b), true
	case BinAnd:
		return a & b, true
	case BinOr:
		return a | b, true
	case BinXor:
		return a ^ b, true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// AssignKind mirrors the source assignment operator on OpFieldStore.
type AssignKind int

const (
	AssignSet  AssignKind = iota // =
	AssignAdd                    // +=
	AssignIncr                   // ++
)

// Instr is one IR instruction. Register operands are indices into the
// frame's virtual register file; -1 means unused.
type Instr struct {
	Op  Opcode
	Dst int
	X   int
	Y   int
	Imm int64
	Sym string
	// Struct/Field identify struct field accesses.
	Struct *StructType
	Field  int
	Assign AssignKind
	Args   []int
	Blk1   int
	Blk2   int
	HasX   bool // OpRet: X valid
	// Line is the source line, for diagnostics and site naming.
	Line int
}

// Block is a basic block: straight-line instructions ending in a terminator
// (Br, CondBr or Ret).
type Block struct {
	Name   string
	Instrs []Instr
}

// Func is an IR function. Parameters arrive in registers 0..NParams-1.
//
// A function and its blocks are immutable once the pass that built them
// returns it. A later pass that changes a function builds a new one (which
// may share the blocks it leaves alone) and puts it in its own module's
// Funcs, so modules from different passes and builds share every function
// neither changed. NewReg and NewBlock are for the pass building f.
type Func struct {
	Name    string
	NParams int
	NRegs   int
	Blocks  []*Block
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() int {
	r := f.NRegs
	f.NRegs++
	return r
}

// NewBlock appends a new basic block and returns its index.
func (f *Func) NewBlock(name string) int {
	f.Blocks = append(f.Blocks, &Block{Name: name})
	return len(f.Blocks) - 1
}

// Field is one member of a struct type.
type Field struct {
	Name string
	// Offset in words from the struct base.
	Offset int
}

// StructType describes a C-subset struct layout (every field is one word:
// an int or a pointer).
type StructType struct {
	Name   string
	Fields []Field
}

// FieldIndex returns the index of the named field, or -1.
func (s *StructType) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Size returns the struct size in words.
func (s *StructType) Size() int { return len(s.Fields) }

// Global is a module-level integer variable.
type Global struct {
	Name string
	Init int64
}

// Module is a compilation unit: the unit of instrumentation and of
// incremental rebuilds (§5.1).
type Module struct {
	Name    string
	Structs []*StructType
	Globals []*Global
	Funcs   []*Func
}

// Func finds a function by name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Link combines modules into a single program image, as the paper's
// workflow links instrumented LLVM IR files. Struct types with the same
// name must have identical layouts; function and global names must be
// unique across modules.
func Link(name string, mods ...*Module) (*Module, error) {
	// Everything is sized up front from the modules' counts. Structs are
	// shared across modules and deduplicated, so only their index is.
	var nstructs, nglobals, nfns int
	for _, m := range mods {
		nstructs += len(m.Structs)
		nglobals += len(m.Globals)
		nfns += len(m.Funcs)
	}
	out := &Module{Name: name}
	if nglobals > 0 {
		out.Globals = make([]*Global, 0, nglobals)
	}
	if nfns > 0 {
		out.Funcs = make([]*Func, 0, nfns)
	}
	structs := make(map[string]*StructType, nstructs)
	fns := make(map[string]bool, nfns)
	globals := make(map[string]bool, nglobals)
	for _, m := range mods {
		for _, s := range m.Structs {
			if prev, ok := structs[s.Name]; ok {
				if prev.Size() != s.Size() {
					return nil, fmt.Errorf("ir: link %s: struct %s has conflicting layouts", name, s.Name)
				}
				continue
			}
			structs[s.Name] = s
			out.Structs = append(out.Structs, s)
		}
		for _, g := range m.Globals {
			if globals[g.Name] {
				return nil, fmt.Errorf("ir: link %s: duplicate global %s", name, g.Name)
			}
			globals[g.Name] = true
			out.Globals = append(out.Globals, g)
		}
		for _, f := range m.Funcs {
			if fns[f.Name] {
				return nil, fmt.Errorf("ir: link %s: duplicate function %s", name, f.Name)
			}
			fns[f.Name] = true
			out.Funcs = append(out.Funcs, f)
		}
	}
	return out, nil
}
