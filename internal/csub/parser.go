package csub

import (
	"fmt"
	"strings"
)

// Parse parses one csub source file.
func Parse(file, src string) (*File, error) {
	p := &parser{lex: newLexer(file, src), src: src, file: file}
	if err := p.advance(); err != nil {
		return nil, err
	}
	f := &File{Name: file, Src: src, Defines: map[string]int64{}}
	for p.tok.kind != tEOF {
		if err := p.parseTopLevel(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

type parser struct {
	lex   *lexer
	src   string
	file  string
	tok   token
	ahead *token
	end   int // the offset just past the last token consumed
}

func (p *parser) advance() error {
	p.end = p.tok.pos + len(p.tok.text)
	if p.ahead != nil {
		p.tok = *p.ahead
		p.ahead = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peek() (token, error) {
	if p.ahead == nil {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.ahead = &t
	}
	return *p.ahead, nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%s:%d: %s", p.file, p.tok.line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) error {
	if p.tok.kind != tPunct || p.tok.text != text {
		return p.errf("expected %q, found %q", text, p.tok.text)
	}
	return p.advance()
}

func (p *parser) accept(text string) bool {
	if p.tok.kind == tPunct && p.tok.text == text {
		if err := p.advance(); err != nil {
			return false
		}
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	if p.tok.kind != tIdent {
		return "", p.errf("expected identifier, found %q", p.tok.text)
	}
	s := p.tok.text
	return s, p.advance()
}

func (p *parser) parseTopLevel(f *File) error {
	first := p.tok // a function definition's extent starts here
	switch {
	case p.tok.kind == tPunct && p.tok.text == "#":
		return p.parseDefine(f)
	case p.tok.kind == tIdent && p.tok.text == "struct":
		next, err := p.peek()
		if err != nil {
			return err
		}
		// `struct X {` is a definition; `struct X *name(` is a function.
		if next.kind == tIdent {
			// Look two ahead by parsing tentatively: read `struct X`
			// then check for '{'.
			if err := p.advance(); err != nil { // consume 'struct'
				return err
			}
			name, err := p.ident()
			if err != nil {
				return err
			}
			if p.tok.kind == tPunct && p.tok.text == "{" {
				return p.parseStructBody(f, name)
			}
			// Function or global returning struct pointer.
			if err := p.expect("*"); err != nil {
				return err
			}
			return p.parseFuncOrGlobal(f, Type{Kind: TPtr, Struct: name}, first)
		}
		return p.errf("expected struct name")
	case p.tok.kind == tIdent && (p.tok.text == "int" || p.tok.text == "long" || p.tok.text == "void"):
		if err := p.advance(); err != nil {
			return err
		}
		return p.parseFuncOrGlobal(f, Type{Kind: TInt}, first)
	default:
		return p.errf("unexpected top-level token %q", p.tok.text)
	}
}

func (p *parser) parseDefine(f *File) error {
	if err := p.advance(); err != nil { // '#'
		return err
	}
	kw, err := p.ident()
	if err != nil {
		return err
	}
	if kw != "define" {
		return p.errf("unsupported preprocessor directive %q", kw)
	}
	name, err := p.ident()
	if err != nil {
		return err
	}
	neg := p.accept("-")
	if p.tok.kind != tNumber {
		return p.errf("#define %s: expected numeric value", name)
	}
	v := p.tok.num
	if neg {
		v = -v
	}
	f.Defines[name] = v
	return p.advance()
}

func (p *parser) parseStructBody(f *File, name string) error {
	sd := &StructDef{Name: name, Line: p.tok.line}
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.accept("}") {
		fd, err := p.parseFieldDef()
		if err != nil {
			return err
		}
		sd.Fields = append(sd.Fields, fd)
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	f.Structs = append(f.Structs, sd)
	return nil
}

func (p *parser) parseFieldDef() (FieldDef, error) {
	switch {
	case p.tok.kind == tIdent && p.tok.text == "struct":
		if err := p.advance(); err != nil {
			return FieldDef{}, err
		}
		sname, err := p.ident()
		if err != nil {
			return FieldDef{}, err
		}
		if err := p.expect("*"); err != nil {
			return FieldDef{}, err
		}
		name, err := p.ident()
		if err != nil {
			return FieldDef{}, err
		}
		return FieldDef{Name: name, Type: Type{Kind: TPtr, Struct: sname}}, p.expect(";")
	case p.tok.kind == tIdent && (p.tok.text == "int" || p.tok.text == "long"):
		if err := p.advance(); err != nil {
			return FieldDef{}, err
		}
		// Function-pointer field: int (*name)(…);
		if p.accept("(") {
			if err := p.expect("*"); err != nil {
				return FieldDef{}, err
			}
			name, err := p.ident()
			if err != nil {
				return FieldDef{}, err
			}
			if err := p.expect(")"); err != nil {
				return FieldDef{}, err
			}
			if err := p.expect("("); err != nil {
				return FieldDef{}, err
			}
			depth := 1
			for depth > 0 {
				if p.tok.kind == tEOF {
					return FieldDef{}, p.errf("unterminated function-pointer field")
				}
				if p.tok.kind == tPunct {
					if p.tok.text == "(" {
						depth++
					} else if p.tok.text == ")" {
						depth--
					}
				}
				if err := p.advance(); err != nil {
					return FieldDef{}, err
				}
			}
			return FieldDef{Name: name, Type: Type{Kind: TFnPtr}}, p.expect(";")
		}
		name, err := p.ident()
		if err != nil {
			return FieldDef{}, err
		}
		return FieldDef{Name: name, Type: Type{Kind: TInt}}, p.expect(";")
	default:
		return FieldDef{}, p.errf("expected field declaration, found %q", p.tok.text)
	}
}

// parseFuncOrGlobal parses a definition after its type; first is the
// type's first token.
func (p *parser) parseFuncOrGlobal(f *File, typ Type, first token) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	line := p.tok.line
	if p.tok.kind == tPunct && p.tok.text == "(" {
		fn, err := p.parseFuncRest(name, line)
		if err != nil {
			return err
		}
		fn.Start, fn.StartLine = first.pos, first.line
		f.Funcs = append(f.Funcs, fn)
		return nil
	}
	// Global variable (integers only, constant initialiser).
	g := &VarDecl{Name: name, Type: typ, Line: line}
	if p.accept("=") {
		neg := p.accept("-")
		if p.tok.kind != tNumber {
			return p.errf("global %s: initialiser must be a constant", name)
		}
		v := p.tok.num
		if neg {
			v = -v
		}
		g.Init = &IntLit{V: v}
		if err := p.advance(); err != nil {
			return err
		}
	}
	f.Globals = append(f.Globals, g)
	return p.expect(";")
}

func (p *parser) parseFuncRest(name string, line int) (*FuncDef, error) {
	fn := &FuncDef{Name: name, Line: line}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.accept(")") {
		if p.tok.kind == tIdent && p.tok.text == "void" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		} else {
			for {
				typ, err := p.parseType()
				if err != nil {
					return nil, err
				}
				pname, err := p.ident()
				if err != nil {
					return nil, err
				}
				fn.Params = append(fn.Params, VarDecl{Name: pname, Type: typ})
				if p.accept(")") {
					break
				}
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body, fn.End = body, p.end
	return fn, nil
}

func (p *parser) parseType() (Type, error) {
	if p.tok.kind != tIdent {
		return Type{}, p.errf("expected type, found %q", p.tok.text)
	}
	switch p.tok.text {
	case "int", "long":
		return Type{Kind: TInt}, p.advance()
	case "struct":
		if err := p.advance(); err != nil {
			return Type{}, err
		}
		name, err := p.ident()
		if err != nil {
			return Type{}, err
		}
		return Type{Kind: TPtr, Struct: name}, p.expect("*")
	default:
		return Type{}, p.errf("unknown type %q", p.tok.text)
	}
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.accept("}") {
		if p.tok.kind == tEOF {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	if p.tok.kind == tIdent {
		switch p.tok.text {
		case "int", "long":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return p.parseDeclRest(Type{Kind: TInt})
		case "struct":
			if err := p.advance(); err != nil {
				return nil, err
			}
			sname, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect("*"); err != nil {
				return nil, err
			}
			return p.parseDeclRest(Type{Kind: TPtr, Struct: sname})
		case "if":
			return p.parseIf()
		case "while":
			return p.parseWhile()
		case "return":
			line := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.accept(";") {
				return &ReturnStmt{Line: line}, nil
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &ReturnStmt{Val: v, Line: line}, p.expect(";")
		default:
			if strings.HasPrefix(p.tok.text, "TESLA_") {
				return p.parseTesla()
			}
		}
	}
	// Expression or assignment statement.
	line := p.tok.line
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.accept("="):
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := checkLValue(lhs); err != nil {
			return nil, p.errf("%v", err)
		}
		return &AssignStmt{LHS: lhs, Op: Set, RHS: rhs, Line: line}, p.expect(";")
	case p.accept("+="):
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := checkLValue(lhs); err != nil {
			return nil, p.errf("%v", err)
		}
		return &AssignStmt{LHS: lhs, Op: Add, RHS: rhs, Line: line}, p.expect(";")
	case p.accept("++"):
		if err := checkLValue(lhs); err != nil {
			return nil, p.errf("%v", err)
		}
		return &AssignStmt{LHS: lhs, Op: Incr, Line: line}, p.expect(";")
	default:
		return &ExprStmt{X: lhs}, p.expect(";")
	}
}

func checkLValue(e Expr) error {
	switch e.(type) {
	case *Ident, *FieldExpr, *IndexExpr:
		return nil
	default:
		return fmt.Errorf("assignment target must be a variable, field or index")
	}
}

func (p *parser) parseDeclRest(typ Type) (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := VarDecl{Name: name, Type: typ, Line: p.tok.line}
	if p.accept("=") {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return &DeclStmt{Decl: d}, p.expect(";")
}

func (p *parser) parseIf() (Stmt, error) {
	if err := p.advance(); err != nil { // 'if'
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then}
	if p.tok.kind == tIdent && p.tok.text == "else" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tIdent && p.tok.text == "if" {
			nested, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{nested}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	if err := p.advance(); err != nil { // 'while'
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body}, nil
}

// parseTesla captures the raw text of a TESLA_* macro invocation through
// its balanced closing parenthesis; the analyser parses it with internal/
// spec once scope types are known.
func (p *parser) parseTesla() (Stmt, error) {
	start := p.tok.pos
	line := p.tok.line
	if err := p.advance(); err != nil { // macro name
		return nil, err
	}
	if p.tok.kind != tPunct || p.tok.text != "(" {
		return nil, p.errf("TESLA macro requires parenthesised body")
	}
	depth := 0
	var end int
	for {
		if p.tok.kind == tEOF {
			return nil, p.errf("unterminated TESLA macro")
		}
		if p.tok.kind == tPunct {
			switch p.tok.text {
			case "(":
				depth++
			case ")":
				depth--
			}
		}
		end = p.tok.pos + len(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if depth == 0 {
			break
		}
	}
	text := p.src[start:end]
	return &TeslaStmt{Text: text, Line: line}, p.expect(";")
}

// Operator precedence, loosest first.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBin(0) }

func (p *parser) parseBin(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBin(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := ""
		if p.tok.kind == tPunct {
			for _, op := range precLevels[level] {
				if p.tok.text == op {
					matched = op
					break
				}
			}
		}
		if matched == "" {
			return lhs, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBin(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{Op: matched, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.tok.kind == tPunct {
		switch p.tok.text {
		case "-", "!":
			op := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{Op: op, X: x}, nil
		case "&":
			if err := p.advance(); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &AddrExpr{X: x}, nil
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.tok.kind == tPunct && p.tok.text == "->":
			line := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			x = &FieldExpr{X: x, Name: name, Line: line}
		case p.tok.kind == tPunct && p.tok.text == "[":
			line := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{X: x, Index: idx, Line: line}
		case p.tok.kind == tPunct && p.tok.text == "(":
			line := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			call := &CallExpr{Fn: x, Line: line}
			if !p.accept(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.accept(")") {
						break
					}
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
			}
			x = call
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.kind == tNumber:
		v := p.tok.num
		return &IntLit{V: v}, p.advance()
	case p.tok.kind == tIdent:
		name := p.tok.text
		line := p.tok.line
		if name == "alloc" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			sname, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &AllocExpr{Struct: sname, Line: line}, p.expect(")")
		}
		return &Ident{Name: name, Line: line}, p.advance()
	case p.tok.kind == tPunct && p.tok.text == "(":
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return x, p.expect(")")
	default:
		return nil, p.errf("unexpected token %q in expression", p.tok.text)
	}
}
