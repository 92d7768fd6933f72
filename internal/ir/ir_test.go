package ir

import (
	"math"
	"strings"
	"testing"
)

func sampleModule(name string) *Module {
	st := &StructType{Name: "pair", Fields: []Field{{Name: "a", Offset: 0}, {Name: "b", Offset: 1}}}
	f := &Func{Name: name + "_fn", NParams: 1}
	f.NRegs = 1
	f.NewBlock("entry")
	r := f.NewReg()
	f.Blocks[0].Instrs = []Instr{
		{Op: OpConst, Dst: r, Imm: 7},
		{Op: OpRet, X: r, HasX: true},
	}
	return &Module{
		Name:    name,
		Structs: []*StructType{st},
		Globals: []*Global{{Name: name + "_g", Init: 3}},
		Funcs:   []*Func{f},
	}
}

func TestLink(t *testing.T) {
	a, b := sampleModule("a"), sampleModule("b")
	prog, err := Link("prog", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 2 || len(prog.Globals) != 2 {
		t.Fatalf("linked: %d funcs %d globals", len(prog.Funcs), len(prog.Globals))
	}
	// Shared struct types are deduplicated by name.
	if len(prog.Structs) != 1 {
		t.Fatalf("structs = %d", len(prog.Structs))
	}
	if prog.Func("a_fn") == nil || prog.Func("missing") != nil {
		t.Fatal("Func lookup")
	}
	if prog.Struct("pair") == nil || prog.Struct("nope") != nil {
		t.Fatal("Struct lookup")
	}
}

func TestLinkConflicts(t *testing.T) {
	a := sampleModule("a")
	dup := sampleModule("a")
	if _, err := Link("prog", a, dup); err == nil {
		t.Fatal("duplicate function must fail")
	}

	b := sampleModule("b")
	b.Structs = []*StructType{{Name: "pair", Fields: []Field{{Name: "x"}}}}
	if _, err := Link("prog", a, b); err == nil {
		t.Fatal("conflicting struct layouts must fail")
	}

	c := sampleModule("c")
	c.Globals[0].Name = "a_g"
	if _, err := Link("prog", a, c); err == nil {
		t.Fatal("duplicate global must fail")
	}
}

func TestPrintCoversOpcodes(t *testing.T) {
	st := &StructType{Name: "s", Fields: []Field{{Name: "f", Offset: 0}}}
	f := &Func{Name: "all", NParams: 0}
	blk := f.NewBlock("entry")
	_ = blk
	instrs := []Instr{
		{Op: OpConst, Dst: 0, Imm: 5},
		{Op: OpAlloca, Dst: 1, Imm: 1},
		{Op: OpAllocHeap, Dst: 2, Struct: st},
		{Op: OpLoad, Dst: 3, X: 1},
		{Op: OpStore, X: 1, Y: 0},
		{Op: OpFieldAddr, Dst: 4, X: 2, Struct: st, Field: 0},
		{Op: OpFieldStore, X: 2, Y: 0, Struct: st, Field: 0, Assign: AssignAdd},
		{Op: OpBin, Dst: 5, Imm: int64(BinAdd), X: 0, Y: 3},
		{Op: OpCall, Dst: 6, Sym: "g", Args: []int{0}},
		{Op: OpCallPtr, Dst: 7, X: 6, Args: []int{0}},
		{Op: OpFnAddr, Dst: 8, Sym: "g"},
		{Op: OpGlobalAddr, Dst: 9, Sym: "gg"},
		{Op: OpBr, Blk1: 0},
		{Op: OpCondBr, X: 5, Blk1: 0, Blk2: 0},
		{Op: OpRet, X: 5, HasX: true},
		{Op: OpRet},
	}
	f.Blocks[0].Instrs = instrs
	f.NRegs = 10
	m := &Module{Name: "p", Structs: []*StructType{st}, Funcs: []*Func{f},
		Globals: []*Global{{Name: "gg", Init: 1}}}
	out := m.String()
	for _, want := range []string{
		"const 5", "alloca 1", "alloc s", "load r1", "store r1, r0",
		"fieldaddr", "fieldstore", "add", "call g(r0)", "callptr r6(r0)",
		"fnaddr g", "globaladdr gg", "br b0", "condbr", "ret r5", "struct s", "global gg",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("print missing %q in:\n%s", want, out)
		}
	}
}

func TestBinKindString(t *testing.T) {
	if BinAdd.String() != "add" || BinXor.String() != "xor" {
		t.Fatal("bin names")
	}
	if !strings.Contains(BinKind(99).String(), "99") {
		t.Fatal("unknown bin name")
	}
}

func TestOptimizeRemovesUnreachableProducers(t *testing.T) {
	f := &Func{Name: "f", NParams: 0}
	f.NewBlock("entry")
	f.NRegs = 3
	f.Blocks[0].Instrs = []Instr{
		{Op: OpConst, Dst: 0, Imm: 1}, // dead
		{Op: OpConst, Dst: 1, Imm: 2},
		{Op: OpConst, Dst: 2, Imm: 3}, // dead
		{Op: OpRet, X: 1, HasX: true},
	}
	m := &Module{Name: "m", Funcs: []*Func{f}}
	Optimize(m)
	if n := len(m.Funcs[0].Blocks[0].Instrs); n != 2 {
		t.Fatalf("instructions after DCE = %d", n)
	}
	// Functions are immutable once compiled: the optimiser replaces the
	// module's entry and leaves the function it was given alone.
	if n := len(f.Blocks[0].Instrs); n != 4 {
		t.Fatalf("Optimize rewrote its input: %d instructions left of 4", n)
	}
	// A function with nothing dead is kept as it is, not copied.
	if g := m.Funcs[0]; OptimizeFunc(g) != g {
		t.Fatal("OptimizeFunc copied a function with no dead instructions")
	}
}

func TestStructHelpers(t *testing.T) {
	st := &StructType{Name: "s", Fields: []Field{{Name: "a", Offset: 0}, {Name: "b", Offset: 1}}}
	if st.FieldIndex("b") != 1 || st.FieldIndex("z") != -1 || st.Size() != 2 {
		t.Fatal("struct helpers")
	}
}

// TestEvalBin pins the word semantics the VM executes and the static checker
// folds with, including the operations that have no value.
func TestEvalBin(t *testing.T) {
	cases := []struct {
		op   BinKind
		a, b int64
		want int64
		ok   bool
	}{
		{BinAdd, math.MaxInt64, 1, math.MinInt64, true},
		{BinSub, 3, 5, -2, true},
		{BinMul, -4, 6, -24, true},
		{BinDiv, -7, 2, -3, true},
		{BinRem, -7, 2, -1, true},
		{BinDiv, 1, 0, 0, false},
		{BinRem, 1, 0, 0, false},
		{BinEq, 2, 2, 1, true},
		{BinNe, 2, 2, 0, true},
		{BinLt, 1, 2, 1, true},
		{BinLe, 2, 2, 1, true},
		{BinGt, 1, 2, 0, true},
		{BinGe, 1, 2, 0, true},
		{BinAnd, 6, 3, 2, true},
		{BinOr, 6, 3, 7, true},
		{BinXor, 6, 3, 5, true},
		{BinKind(99), 1, 1, 0, false},
	}
	for _, c := range cases {
		if v, ok := EvalBin(c.op, c.a, c.b); v != c.want || ok != c.ok {
			t.Errorf("EvalBin(%v, %d, %d) = %d, %v; want %d, %v", c.op, c.a, c.b, v, ok, c.want, c.ok)
		}
	}
}
