// Package csub implements the C-subset front-end of the TESLA toolchain,
// standing in for Clang in the paper's pipeline (§4.1). It parses a small
// but representative slice of C — structs, pointers, function pointers,
// control flow, #define constants — plus TESLA assertion macros embedded in
// function bodies. The analyser (internal/analyse) extracts the assertions;
// the compiler (internal/compiler) lowers the rest to IR.
//
// Supported surface:
//
//	#define NAME 123
//	struct sock { int state; struct proto *p; int (*poll)(struct sock *); };
//	int counter = 0;
//	int f(int a, struct sock *s) {
//	    int x = a + 1;
//	    struct sock *t = alloc(sock);
//	    s->state = 3; s->state += 1; s->state++;
//	    s->poll = handler;            // function name as value
//	    x = s->poll(t);               // indirect call through field
//	    if (x > 0 && x != 7) { ... } else { ... }
//	    while (x) { x = x - 1; }
//	    print(x);                     // builtin
//	    TESLA_WITHIN(f, previously(check(s) == 0));
//	    return x;
//	}
package csub

// TypeKind classifies csub types.
type TypeKind int

const (
	// TInt is the 64-bit integer (C int/long collapsed).
	TInt TypeKind = iota
	// TPtr is a pointer to a named struct.
	TPtr
	// TFnPtr is a function-pointer field (signature unchecked).
	TFnPtr
)

// Type is a csub type. Every value is one machine word.
type Type struct {
	Kind   TypeKind
	Struct string // for TPtr
}

// File is one parsed compilation unit.
type File struct {
	Name string
	// Src is the source text the file was parsed from; each FuncDef's
	// extent indexes it.
	Src     string
	Defines map[string]int64
	Structs []*StructDef
	Globals []*VarDecl
	Funcs   []*FuncDef
}

// StructDef declares a struct layout.
type StructDef struct {
	Name   string
	Fields []FieldDef
	Line   int
}

// FieldIndex returns the index of the named field, or -1.
func (s *StructDef) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// FieldDef is one struct member.
type FieldDef struct {
	Name string
	Type Type
}

// VarDecl declares a global or local variable.
type VarDecl struct {
	Name string
	Type Type
	Init Expr // may be nil
	Line int
}

// FuncDef declares a function with a body.
type FuncDef struct {
	Name   string
	Params []VarDecl
	Body   []Stmt
	Line   int
	// Start and End bound the definition's source text, File.Src[Start:End]:
	// Start is the byte offset of its first token (the return type) and
	// End the offset just past its last (the closing brace). StartLine is
	// the first token's line. Equal text starting on an equal line lexes
	// to equal tokens at equal lines, so it parses to an equal FuncDef.
	Start, End, StartLine int
}

// Stmt is a csub statement.
type Stmt interface{ stmtNode() }

// DeclStmt is a local variable declaration.
type DeclStmt struct{ Decl VarDecl }

// AssignOp is the assignment operator of an AssignStmt.
type AssignOp int

const (
	// Set is plain assignment (=).
	Set AssignOp = iota
	// Add is compound assignment (+=).
	Add
	// Incr is increment (++).
	Incr
)

// AssignStmt assigns to an identifier or struct field.
type AssignStmt struct {
	LHS  Expr // *Ident or *FieldExpr
	Op   AssignOp
	RHS  Expr // nil for Incr
	Line int
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
}

// ReturnStmt returns from the function.
type ReturnStmt struct {
	Val  Expr // may be nil
	Line int
}

// ExprStmt evaluates an expression for side effects (calls).
type ExprStmt struct{ X Expr }

// TeslaStmt is a TESLA assertion macro, captured verbatim for the analyser.
type TeslaStmt struct {
	Text string
	Line int
}

func (*DeclStmt) stmtNode()   {}
func (*AssignStmt) stmtNode() {}
func (*IfStmt) stmtNode()     {}
func (*WhileStmt) stmtNode()  {}
func (*ReturnStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}
func (*TeslaStmt) stmtNode()  {}

// Expr is a csub expression.
type Expr interface{ exprNode() }

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// Ident references a variable, function or #define constant.
type Ident struct {
	Name string
	Line int
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	Op string
	X  Expr
}

// BinExpr is a binary operation. Op is the C token (e.g. "==", "&&").
type BinExpr struct {
	Op   string
	X, Y Expr
}

// CallExpr calls Fn (an *Ident for direct calls, or any expression
// evaluating to a function pointer) with Args.
type CallExpr struct {
	Fn   Expr
	Args []Expr
	Line int
}

// FieldExpr is p->name.
type FieldExpr struct {
	X    Expr
	Name string
	Line int
}

// IndexExpr is p[i]: word-indexed access through a pointer.
type IndexExpr struct {
	X     Expr
	Index Expr
	Line  int
}

// AddrExpr is &x (function address or variable address).
type AddrExpr struct{ X Expr }

// AllocExpr is the builtin alloc(structName): heap-allocate a zeroed struct.
type AllocExpr struct {
	Struct string
	Line   int
}

func (*IntLit) exprNode()    {}
func (*Ident) exprNode()     {}
func (*UnaryExpr) exprNode() {}
func (*BinExpr) exprNode()   {}
func (*CallExpr) exprNode()  {}
func (*FieldExpr) exprNode() {}
func (*IndexExpr) exprNode() {}
func (*AddrExpr) exprNode()  {}
func (*AllocExpr) exprNode() {}
