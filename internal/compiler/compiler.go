// Package compiler lowers csub ASTs to IR (internal/ir), the front-end
// stage of the TESLA pipeline that Clang performs in the paper (§4.1/§4.2).
// Mutable locals are lowered through allocas, mirroring `clang -O0` output —
// the unoptimised form TESLA instruments. TESLA assertion macros are parsed
// in scope (so variable struct types and #define constants resolve) and
// leave a `__tesla_inline_assertion` pseudo-call carrying the values of the
// assertion's scope variables; the instrumenter later replaces it with an
// event translator, or a strip pass removes it from uninstrumented builds.
package compiler

import (
	"fmt"

	"tesla/internal/csub"
	"tesla/internal/ir"
	"tesla/internal/spec"
)

// SitePseudoFn is the pseudo-function marking assertion sites in IR,
// mirroring the paper's __tesla_inline_assertion.
const SitePseudoFn = "__tesla_inline_assertion"

// Context carries cross-file knowledge (struct layouts, #defines, defined
// functions) — the role of headers in a C build.
type Context struct {
	structDefs map[string]*csub.StructDef
	structs    map[string]*ir.StructType
	defines    map[string]int64
	fns        map[string]bool
	globals    map[string]bool
}

// NewContext indexes the given files for compilation.
func NewContext(files ...*csub.File) (*Context, error) {
	ctx := &Context{
		structDefs: map[string]*csub.StructDef{},
		structs:    map[string]*ir.StructType{},
		defines:    map[string]int64{},
		fns:        map[string]bool{},
		globals:    map[string]bool{},
	}
	for _, f := range files {
		if err := ctx.addInterface(InterfaceOf(f)); err != nil {
			return nil, err
		}
	}
	return ctx, nil
}

// DefinedFns returns the set of functions defined across the context,
// which the instrumenter uses to choose caller- vs callee-side hooks.
func (c *Context) DefinedFns() map[string]bool {
	out := make(map[string]bool, len(c.fns))
	for k := range c.fns {
		out[k] = true
	}
	return out
}

// Unit is one compiled file: its IR module plus the assertions found in it.
type Unit struct {
	Module     *ir.Module
	Assertions []*spec.Assertion

	// What Recompile needs to reuse a function: the context the unit was
	// compiled under and, aligned with Module.Funcs, each definition's
	// source.
	ctx  *Context
	defs []defSrc
}

// defSrc is one compiled definition's source text and first line, and
// where its assertions are: Assertions[from:to].
type defSrc struct {
	text           string
	line, from, to int
}

// CompileFile lowers one file against the context.
func CompileFile(f *csub.File, ctx *Context) (*Unit, error) {
	return Recompile(f, ctx, nil)
}

// Recompile lowers f against ctx as CompileFile does, but takes from
// prev, a unit compiled earlier, each function whose IR cannot differ:
// prev was compiled from a file of f's name under the same ctx pointer,
// and has a function of the same name whose source text and first line
// equal the new definition's. Equal text on an equal line parses to an
// equal definition, and a definition's IR and assertions depend only on
// it, the file name and the context. A Context is immutable and covers
// every file's interface, f's #defines included, so the pointer stands
// for everything else the IR reads. A reused *ir.Func is shared, not
// copied: IR is immutable once compiled. A nil prev compiles every
// function.
func Recompile(f *csub.File, ctx *Context, prev *Unit) (*Unit, error) {
	u := &Unit{Module: &ir.Module{Name: f.Name}, ctx: ctx, defs: make([]defSrc, len(f.Funcs))}
	// Only struct types defined in this file go in the module; the linker
	// dedupes shared types by name.
	for _, s := range f.Structs {
		u.Module.Structs = append(u.Module.Structs, ctx.structs[s.Name])
	}
	for _, g := range f.Globals {
		init, err := globalInit(f, g, ctx)
		if err != nil {
			return nil, err
		}
		u.Module.Globals = append(u.Module.Globals, &ir.Global{Name: g.Name, Init: init})
	}
	if prev != nil && (prev.ctx != ctx || prev.Module.Name != f.Name) {
		prev = nil
	}
	if len(f.Funcs) > 0 {
		u.Module.Funcs = make([]*ir.Func, len(f.Funcs))
	}
	c := &fnCompiler{ctx: ctx, file: f, unit: u}
	for i, fn := range f.Funcs {
		d := &u.defs[i]
		d.text, d.line, d.from = f.Src[fn.Start:fn.End], fn.StartLine, len(u.Assertions)
		if j := prev.find(fn.Name, d); j >= 0 {
			u.Module.Funcs[i] = prev.Module.Funcs[j]
			u.Assertions = append(u.Assertions, prev.Assertions[prev.defs[j].from:prev.defs[j].to]...)
		} else {
			irf, err := c.compileFunc(fn)
			if err != nil {
				return nil, err
			}
			u.Module.Funcs[i] = irf
		}
		d.to = len(u.Assertions)
	}
	return u, nil
}

// find returns the index of u's function named name whose definition has
// d's text and line, or -1. A definition without source text (a File not
// made by csub.Parse) never matches.
func (u *Unit) find(name string, d *defSrc) int {
	if u == nil || d.text == "" {
		return -1
	}
	for j := range u.defs {
		if e := &u.defs[j]; e.text == d.text && e.line == d.line && u.Module.Funcs[j].Name == name {
			return j
		}
	}
	return -1
}

// globalInit evaluates a global initialiser: C static initialisers must be
// constant expressions, so only literals, #define constants and constant
// negation are accepted.
func globalInit(f *csub.File, g *csub.VarDecl, ctx *Context) (int64, error) {
	if g.Init == nil {
		return 0, nil
	}
	v, ok := constExpr(g.Init, ctx)
	if !ok {
		return 0, fmt.Errorf("%s:%d: global %s: initialiser is not a constant expression", f.Name, g.Line, g.Name)
	}
	return v, nil
}

// constExpr evaluates the constant subset of csub expressions.
func constExpr(e csub.Expr, ctx *Context) (int64, bool) {
	switch x := e.(type) {
	case *csub.IntLit:
		return x.V, true
	case *csub.Ident:
		v, ok := ctx.defines[x.Name]
		return v, ok
	case *csub.UnaryExpr:
		v, ok := constExpr(x.X, ctx)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case "-":
			return -v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	}
	return 0, false
}

type varInfo struct {
	addr int // register holding the alloca/global address
	typ  csub.Type
}

type scope struct {
	parent *scope
	vars   map[string]varInfo
}

func (s *scope) lookup(name string) (varInfo, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v, true
		}
	}
	return varInfo{}, false
}

type fnCompiler struct {
	ctx  *Context
	file *csub.File
	unit *Unit
	fn   *ir.Func
	cur  int  // current block index
	done bool // current block is terminated
	sc   *scope
	// buf holds the current block's instructions. It is reused across
	// blocks and functions: each block is entered once, and its
	// instructions are copied out at their exact size when it is left.
	buf []ir.Instr
}

func (c *fnCompiler) errf(line int, format string, args ...interface{}) error {
	return fmt.Errorf("%s:%d: %s", c.file.Name, line, fmt.Sprintf(format, args...))
}

func (c *fnCompiler) emit(in ir.Instr) {
	if c.done {
		// Unreachable code after return: park it in a fresh block so
		// the IR stays well-formed.
		c.enter(c.fn.NewBlock("unreachable"))
	}
	c.buf = append(c.buf, in)
	switch in.Op {
	case ir.OpBr, ir.OpCondBr, ir.OpRet:
		c.done = true
	}
}

// enter makes block b current, copying the block being left out of buf.
func (c *fnCompiler) enter(b int) {
	c.leave()
	c.cur, c.done = b, false
}

// leave stores the current block's instructions at their exact size.
func (c *fnCompiler) leave() {
	if len(c.buf) > 0 {
		c.fn.Blocks[c.cur].Instrs = append([]ir.Instr(nil), c.buf...)
		c.buf = c.buf[:0]
	}
}

func (c *fnCompiler) emitConst(v int64) int {
	r := c.fn.NewReg()
	c.emit(ir.Instr{Op: ir.OpConst, Dst: r, Imm: v})
	return r
}

func (c *fnCompiler) compileFunc(fd *csub.FuncDef) (*ir.Func, error) {
	c.fn = &ir.Func{Name: fd.Name, NParams: len(fd.Params)}
	c.fn.NRegs = len(fd.Params)
	c.cur, c.done = c.fn.NewBlock("entry"), false
	c.buf = c.buf[:0]
	c.sc = &scope{vars: map[string]varInfo{}}

	// Parameters land in registers 0..n-1; spill each into an alloca so
	// the body can reassign them (clang -O0 shape).
	for i, p := range fd.Params {
		addr := c.fn.NewReg()
		c.emit(ir.Instr{Op: ir.OpAlloca, Dst: addr, Imm: 1})
		c.emit(ir.Instr{Op: ir.OpStore, X: addr, Y: i})
		c.sc.vars[p.Name] = varInfo{addr: addr, typ: p.Type}
	}

	if err := c.compileStmts(fd.Body); err != nil {
		return nil, err
	}
	if !c.done {
		r := c.emitConst(0)
		c.emit(ir.Instr{Op: ir.OpRet, X: r, HasX: true})
	}
	c.leave()
	return c.fn, nil
}

func (c *fnCompiler) compileStmts(stmts []csub.Stmt) error {
	for _, s := range stmts {
		if err := c.compileStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *fnCompiler) compileStmt(s csub.Stmt) error {
	switch st := s.(type) {
	case *csub.DeclStmt:
		addr := c.fn.NewReg()
		c.emit(ir.Instr{Op: ir.OpAlloca, Dst: addr, Imm: 1, Line: st.Decl.Line})
		if st.Decl.Init != nil {
			v, _, err := c.compileExpr(st.Decl.Init)
			if err != nil {
				return err
			}
			c.emit(ir.Instr{Op: ir.OpStore, X: addr, Y: v})
		} else {
			z := c.emitConst(0)
			c.emit(ir.Instr{Op: ir.OpStore, X: addr, Y: z})
		}
		c.sc.vars[st.Decl.Name] = varInfo{addr: addr, typ: st.Decl.Type}
		return nil

	case *csub.AssignStmt:
		return c.compileAssign(st)

	case *csub.IfStmt:
		cond, _, err := c.compileExpr(st.Cond)
		if err != nil {
			return err
		}
		thenB := c.fn.NewBlock("then")
		elseB := c.fn.NewBlock("else")
		joinB := c.fn.NewBlock("join")
		c.emit(ir.Instr{Op: ir.OpCondBr, X: cond, Blk1: thenB, Blk2: elseB})

		c.enter(thenB)
		c.pushScope()
		if err := c.compileStmts(st.Then); err != nil {
			return err
		}
		c.popScope()
		if !c.done {
			c.emit(ir.Instr{Op: ir.OpBr, Blk1: joinB})
		}

		c.enter(elseB)
		c.pushScope()
		if err := c.compileStmts(st.Else); err != nil {
			return err
		}
		c.popScope()
		if !c.done {
			c.emit(ir.Instr{Op: ir.OpBr, Blk1: joinB})
		}

		c.enter(joinB)
		return nil

	case *csub.WhileStmt:
		headB := c.fn.NewBlock("while.head")
		bodyB := c.fn.NewBlock("while.body")
		exitB := c.fn.NewBlock("while.exit")
		c.emit(ir.Instr{Op: ir.OpBr, Blk1: headB})
		c.enter(headB)
		cond, _, err := c.compileExpr(st.Cond)
		if err != nil {
			return err
		}
		c.emit(ir.Instr{Op: ir.OpCondBr, X: cond, Blk1: bodyB, Blk2: exitB})
		c.enter(bodyB)
		c.pushScope()
		if err := c.compileStmts(st.Body); err != nil {
			return err
		}
		c.popScope()
		if !c.done {
			c.emit(ir.Instr{Op: ir.OpBr, Blk1: headB})
		}
		c.enter(exitB)
		return nil

	case *csub.ReturnStmt:
		if st.Val == nil {
			r := c.emitConst(0)
			c.emit(ir.Instr{Op: ir.OpRet, X: r, HasX: true, Line: st.Line})
			return nil
		}
		v, _, err := c.compileExpr(st.Val)
		if err != nil {
			return err
		}
		c.emit(ir.Instr{Op: ir.OpRet, X: v, HasX: true, Line: st.Line})
		return nil

	case *csub.ExprStmt:
		_, _, err := c.compileExpr(st.X)
		return err

	case *csub.TeslaStmt:
		return c.compileTesla(st)

	default:
		return fmt.Errorf("compiler: unknown statement %T", s)
	}
}

func (c *fnCompiler) pushScope() { c.sc = &scope{parent: c.sc, vars: map[string]varInfo{}} }
func (c *fnCompiler) popScope()  { c.sc = c.sc.parent }

func (c *fnCompiler) compileAssign(st *csub.AssignStmt) error {
	switch lhs := st.LHS.(type) {
	case *csub.Ident:
		info, ok := c.sc.lookup(lhs.Name)
		var addr int
		if ok {
			addr = info.addr
		} else if c.ctx.globals[lhs.Name] {
			addr = c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, Sym: lhs.Name})
		} else {
			return c.errf(st.Line, "assignment to undeclared variable %q", lhs.Name)
		}
		switch st.Op {
		case csub.Set:
			v, _, err := c.compileExpr(st.RHS)
			if err != nil {
				return err
			}
			c.emit(ir.Instr{Op: ir.OpStore, X: addr, Y: v})
		case csub.Add:
			v, _, err := c.compileExpr(st.RHS)
			if err != nil {
				return err
			}
			old := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpLoad, Dst: old, X: addr})
			sum := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpBin, Dst: sum, Imm: int64(ir.BinAdd), X: old, Y: v})
			c.emit(ir.Instr{Op: ir.OpStore, X: addr, Y: sum})
		case csub.Incr:
			old := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpLoad, Dst: old, X: addr})
			one := c.emitConst(1)
			sum := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpBin, Dst: sum, Imm: int64(ir.BinAdd), X: old, Y: one})
			c.emit(ir.Instr{Op: ir.OpStore, X: addr, Y: sum})
		}
		return nil

	case *csub.FieldExpr:
		base, btyp, err := c.compileExpr(lhs.X)
		if err != nil {
			return err
		}
		st2, fi, err := c.fieldOf(btyp, lhs.Name, lhs.Line)
		if err != nil {
			return err
		}
		in := ir.Instr{Op: ir.OpFieldStore, X: base, Struct: st2, Field: fi, Line: st.Line}
		switch st.Op {
		case csub.Set:
			v, _, err := c.compileExpr(st.RHS)
			if err != nil {
				return err
			}
			in.Assign, in.Y = ir.AssignSet, v
		case csub.Add:
			v, _, err := c.compileExpr(st.RHS)
			if err != nil {
				return err
			}
			in.Assign, in.Y = ir.AssignAdd, v
		case csub.Incr:
			in.Assign, in.Y = ir.AssignIncr, -1
		}
		c.emit(in)
		return nil

	case *csub.IndexExpr:
		// p[i] = v lowers to a plain word store: index stores do not go
		// through OpFieldStore, so they are invisible to field-assignment
		// events (struct fields must be named to be instrumentable).
		addr, err := c.indexAddr(lhs)
		if err != nil {
			return err
		}
		switch st.Op {
		case csub.Set:
			v, _, err := c.compileExpr(st.RHS)
			if err != nil {
				return err
			}
			c.emit(ir.Instr{Op: ir.OpStore, X: addr, Y: v})
		case csub.Add:
			v, _, err := c.compileExpr(st.RHS)
			if err != nil {
				return err
			}
			old := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpLoad, Dst: old, X: addr})
			sum := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpBin, Dst: sum, Imm: int64(ir.BinAdd), X: old, Y: v})
			c.emit(ir.Instr{Op: ir.OpStore, X: addr, Y: sum})
		case csub.Incr:
			old := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpLoad, Dst: old, X: addr})
			one := c.emitConst(1)
			sum := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpBin, Dst: sum, Imm: int64(ir.BinAdd), X: old, Y: one})
			c.emit(ir.Instr{Op: ir.OpStore, X: addr, Y: sum})
		}
		return nil

	default:
		return c.errf(st.Line, "bad assignment target %T", st.LHS)
	}
}

// indexAddr computes the word address of p[i]: the base pointer plus the
// index.
func (c *fnCompiler) indexAddr(x *csub.IndexExpr) (int, error) {
	base, _, err := c.compileExpr(x.X)
	if err != nil {
		return 0, err
	}
	idx, _, err := c.compileExpr(x.Index)
	if err != nil {
		return 0, err
	}
	addr := c.fn.NewReg()
	c.emit(ir.Instr{Op: ir.OpBin, Dst: addr, Imm: int64(ir.BinAdd), X: base, Y: idx})
	return addr, nil
}

func (c *fnCompiler) fieldOf(t csub.Type, name string, line int) (*ir.StructType, int, error) {
	if t.Kind != csub.TPtr {
		return nil, 0, c.errf(line, "field access on non-pointer value")
	}
	sd := c.ctx.structDefs[t.Struct]
	if sd == nil {
		return nil, 0, c.errf(line, "unknown struct %q", t.Struct)
	}
	fi := sd.FieldIndex(name)
	if fi < 0 {
		return nil, 0, c.errf(line, "struct %s has no field %q", t.Struct, name)
	}
	return c.ctx.structs[t.Struct], fi, nil
}

// compileExpr returns the value register and the static type.
func (c *fnCompiler) compileExpr(e csub.Expr) (int, csub.Type, error) {
	intT := csub.Type{Kind: csub.TInt}
	switch x := e.(type) {
	case *csub.IntLit:
		return c.emitConst(x.V), intT, nil

	case *csub.Ident:
		if info, ok := c.sc.lookup(x.Name); ok {
			r := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpLoad, Dst: r, X: info.addr})
			return r, info.typ, nil
		}
		if v, ok := c.file.Defines[x.Name]; ok {
			return c.emitConst(v), intT, nil
		}
		if v, ok := c.ctx.defines[x.Name]; ok {
			return c.emitConst(v), intT, nil
		}
		if c.ctx.globals[x.Name] {
			addr := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, Sym: x.Name})
			r := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpLoad, Dst: r, X: addr})
			return r, intT, nil
		}
		// A bare function name is a function-pointer value; unresolved
		// names are assumed to be functions from other modules and are
		// checked at link/run time.
		r := c.fn.NewReg()
		c.emit(ir.Instr{Op: ir.OpFnAddr, Dst: r, Sym: x.Name, Line: x.Line})
		return r, csub.Type{Kind: csub.TFnPtr}, nil

	case *csub.UnaryExpr:
		v, _, err := c.compileExpr(x.X)
		if err != nil {
			return 0, intT, err
		}
		switch x.Op {
		case "-":
			z := c.emitConst(0)
			r := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpBin, Dst: r, Imm: int64(ir.BinSub), X: z, Y: v})
			return r, intT, nil
		case "!":
			z := c.emitConst(0)
			r := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpBin, Dst: r, Imm: int64(ir.BinEq), X: v, Y: z})
			return r, intT, nil
		}
		return 0, intT, fmt.Errorf("compiler: unknown unary %q", x.Op)

	case *csub.BinExpr:
		if x.Op == "&&" || x.Op == "||" {
			return c.compileShortCircuit(x)
		}
		a, _, err := c.compileExpr(x.X)
		if err != nil {
			return 0, intT, err
		}
		b, _, err := c.compileExpr(x.Y)
		if err != nil {
			return 0, intT, err
		}
		kind, ok := binKinds[x.Op]
		if !ok {
			return 0, intT, fmt.Errorf("compiler: unknown operator %q", x.Op)
		}
		r := c.fn.NewReg()
		c.emit(ir.Instr{Op: ir.OpBin, Dst: r, Imm: int64(kind), X: a, Y: b})
		return r, intT, nil

	case *csub.CallExpr:
		return c.compileCall(x)

	case *csub.FieldExpr:
		base, btyp, err := c.compileExpr(x.X)
		if err != nil {
			return 0, intT, err
		}
		st, fi, err := c.fieldOf(btyp, x.Name, x.Line)
		if err != nil {
			return 0, intT, err
		}
		addr := c.fn.NewReg()
		c.emit(ir.Instr{Op: ir.OpFieldAddr, Dst: addr, X: base, Struct: st, Field: fi})
		r := c.fn.NewReg()
		c.emit(ir.Instr{Op: ir.OpLoad, Dst: r, X: addr})
		return r, c.fieldType(btyp, x.Name), nil

	case *csub.IndexExpr:
		addr, err := c.indexAddr(x)
		if err != nil {
			return 0, intT, err
		}
		r := c.fn.NewReg()
		c.emit(ir.Instr{Op: ir.OpLoad, Dst: r, X: addr})
		return r, intT, nil

	case *csub.AddrExpr:
		switch inner := x.X.(type) {
		case *csub.Ident:
			if info, ok := c.sc.lookup(inner.Name); ok {
				return info.addr, csub.Type{Kind: csub.TInt}, nil
			}
			if c.ctx.globals[inner.Name] {
				addr := c.fn.NewReg()
				c.emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, Sym: inner.Name})
				return addr, intT, nil
			}
			r := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpFnAddr, Dst: r, Sym: inner.Name})
			return r, csub.Type{Kind: csub.TFnPtr}, nil
		default:
			return 0, intT, fmt.Errorf("compiler: & requires a named target")
		}

	case *csub.AllocExpr:
		st := c.ctx.structs[x.Struct]
		if st == nil {
			return 0, intT, c.errf(x.Line, "alloc of unknown struct %q", x.Struct)
		}
		r := c.fn.NewReg()
		c.emit(ir.Instr{Op: ir.OpAllocHeap, Dst: r, Struct: st})
		return r, csub.Type{Kind: csub.TPtr, Struct: x.Struct}, nil

	default:
		return 0, intT, fmt.Errorf("compiler: unknown expression %T", e)
	}
}

func (c *fnCompiler) fieldType(base csub.Type, field string) csub.Type {
	sd := c.ctx.structDefs[base.Struct]
	for _, f := range sd.Fields {
		if f.Name == field {
			return f.Type
		}
	}
	return csub.Type{Kind: csub.TInt}
}

var binKinds = map[string]ir.BinKind{
	"+": ir.BinAdd, "-": ir.BinSub, "*": ir.BinMul, "/": ir.BinDiv, "%": ir.BinRem,
	"==": ir.BinEq, "!=": ir.BinNe, "<": ir.BinLt, "<=": ir.BinLe, ">": ir.BinGt, ">=": ir.BinGe,
	"&": ir.BinAnd, "|": ir.BinOr, "^": ir.BinXor,
}

// compileShortCircuit lowers && and || through control flow and a result
// alloca, matching clang -O0.
func (c *fnCompiler) compileShortCircuit(x *csub.BinExpr) (int, csub.Type, error) {
	intT := csub.Type{Kind: csub.TInt}
	res := c.fn.NewReg()
	c.emit(ir.Instr{Op: ir.OpAlloca, Dst: res, Imm: 1})

	a, _, err := c.compileExpr(x.X)
	if err != nil {
		return 0, intT, err
	}
	z := c.emitConst(0)
	aBool := c.fn.NewReg()
	c.emit(ir.Instr{Op: ir.OpBin, Dst: aBool, Imm: int64(ir.BinNe), X: a, Y: z})
	c.emit(ir.Instr{Op: ir.OpStore, X: res, Y: aBool})

	evalB := c.fn.NewBlock("sc.rhs")
	joinB := c.fn.NewBlock("sc.join")
	if x.Op == "&&" {
		c.emit(ir.Instr{Op: ir.OpCondBr, X: aBool, Blk1: evalB, Blk2: joinB})
	} else {
		c.emit(ir.Instr{Op: ir.OpCondBr, X: aBool, Blk1: joinB, Blk2: evalB})
	}

	c.enter(evalB)
	b, _, err := c.compileExpr(x.Y)
	if err != nil {
		return 0, intT, err
	}
	z2 := c.emitConst(0)
	bBool := c.fn.NewReg()
	c.emit(ir.Instr{Op: ir.OpBin, Dst: bBool, Imm: int64(ir.BinNe), X: b, Y: z2})
	c.emit(ir.Instr{Op: ir.OpStore, X: res, Y: bBool})
	c.emit(ir.Instr{Op: ir.OpBr, Blk1: joinB})

	c.enter(joinB)
	out := c.fn.NewReg()
	c.emit(ir.Instr{Op: ir.OpLoad, Dst: out, X: res})
	return out, intT, nil
}

func (c *fnCompiler) compileCall(x *csub.CallExpr) (int, csub.Type, error) {
	intT := csub.Type{Kind: csub.TInt}
	var args []int
	for _, a := range x.Args {
		r, _, err := c.compileExpr(a)
		if err != nil {
			return 0, intT, err
		}
		args = append(args, r)
	}
	// Direct call when the callee is a plain function name not shadowed
	// by a variable.
	if id, ok := x.Fn.(*csub.Ident); ok {
		if _, shadowed := c.sc.lookup(id.Name); !shadowed {
			r := c.fn.NewReg()
			c.emit(ir.Instr{Op: ir.OpCall, Dst: r, Sym: id.Name, Args: args, Line: x.Line})
			return r, intT, nil
		}
	}
	fp, _, err := c.compileExpr(x.Fn)
	if err != nil {
		return 0, intT, err
	}
	r := c.fn.NewReg()
	c.emit(ir.Instr{Op: ir.OpCallPtr, Dst: r, X: fp, Args: args, Line: x.Line})
	return r, intT, nil
}

// compileTesla parses an assertion macro in scope and emits the assertion-
// site pseudo-call carrying the scope variables' current values.
func (c *fnCompiler) compileTesla(st *csub.TeslaStmt) error {
	env := &spec.Env{
		Consts:     map[string]int64{},
		VarStructs: map[string]string{},
	}
	for k, v := range c.ctx.defines {
		env.Consts[k] = v
	}
	for sc := c.sc; sc != nil; sc = sc.parent {
		for name, info := range sc.vars {
			if info.typ.Kind == csub.TPtr {
				if _, seen := env.VarStructs[name]; !seen {
					env.VarStructs[name] = info.typ.Struct
				}
			}
		}
	}
	name := fmt.Sprintf("%s:%d", c.file.Name, st.Line)
	a, err := spec.Parse(name, st.Text, env)
	if err != nil {
		return err
	}

	var args []int
	for _, v := range spec.Vars(a.Expr) {
		info, ok := c.sc.lookup(v)
		if !ok {
			return c.errf(st.Line, "assertion references %q, which is not in scope", v)
		}
		r := c.fn.NewReg()
		c.emit(ir.Instr{Op: ir.OpLoad, Dst: r, X: info.addr})
		args = append(args, r)
	}
	c.unit.Assertions = append(c.unit.Assertions, a)
	dst := c.fn.NewReg()
	c.emit(ir.Instr{
		Op:  ir.OpCall,
		Dst: dst,
		// The assertion name rides in the symbol so the pseudo-call
		// survives linking and the instrumenter can match it to its
		// automaton.
		Sym:  SitePseudoFn + ":" + a.Name,
		Args: args,
		Line: st.Line,
	})
	return nil
}
