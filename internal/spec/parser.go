package spec

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Env supplies the symbol context the analyser has when parsing assertions
// out of source code: named C constants (for flags(IO_NOMACCHECK) and
// enum-like arguments) and the struct types of in-scope variables (for field
// assignment events).
type Env struct {
	// Consts maps C constant names to values. A bare identifier argument
	// found here is a PatConst; otherwise it is a PatVar bound from the
	// assertion's scope.
	Consts map[string]int64
	// VarStructs maps scope variable names to their struct type names,
	// used to resolve `s.field = v` events.
	VarStructs map[string]string
	// Syscall overrides the function bounding TESLA_SYSCALL* macros
	// (defaults to SyscallFn).
	Syscall string
}

func (e *Env) constVal(name string) (int64, bool) {
	if e == nil || e.Consts == nil {
		return 0, false
	}
	v, ok := e.Consts[name]
	return v, ok
}

func (e *Env) structOf(varName string) string {
	if e == nil || e.VarStructs == nil {
		return ""
	}
	return e.VarStructs[varName]
}

func (e *Env) syscall() string {
	if e != nil && e.Syscall != "" {
		return e.Syscall
	}
	return SyscallFn
}

// Parse parses a complete TESLA assertion macro, e.g.
//
//	TESLA_WITHIN(enclosing_fn, previously(security_check(ANY(ptr), o, op) == 0))
//
// name becomes the assertion's identifier (conventionally file:line).
func Parse(name, src string, env *Env) (*Assertion, error) {
	p := &parser{lex: newLexer(src), env: env}
	a, err := p.parseAssertion(name)
	if err != nil {
		return nil, fmt.Errorf("spec: %s: %w", name, err)
	}
	if !p.lex.atEOF() {
		return nil, fmt.Errorf("spec: %s: trailing input %q", name, p.lex.rest())
	}
	return a, nil
}

// lexer

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct // single or multi char punctuation, Text holds it
)

type token struct {
	Kind tokKind
	Text string
	Num  int64
	Pos  int
}

type lexer struct {
	src string
	pos int
	tok token
}

func newLexer(src string) *lexer {
	l := &lexer{src: src}
	l.next()
	return l
}

func (l *lexer) atEOF() bool { return l.tok.Kind == tokEOF }

func (l *lexer) rest() string {
	if l.tok.Kind == tokEOF {
		return ""
	}
	return l.src[l.tok.Pos:]
}

func (l *lexer) next() {
	l.tok = l.scan()
}

var multiPunct = []string{"::", "==", "+=", "++", "||"}

func (l *lexer) scan() token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// C comments inside macro bodies are skipped.
		if strings.HasPrefix(l.src[l.pos:], "//") {
			i := strings.IndexByte(l.src[l.pos:], '\n')
			if i < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += i + 1
			}
			continue
		}
		if strings.HasPrefix(l.src[l.pos:], "/*") {
			i := strings.Index(l.src[l.pos+2:], "*/")
			if i < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += i + 4
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{Kind: tokEOF, Pos: l.pos}
	}
	start := l.pos
	c := rune(l.src[l.pos])
	switch {
	case unicode.IsLetter(c) || c == '_':
		for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
			l.pos++
		}
		return token{Kind: tokIdent, Text: l.src[start:l.pos], Pos: start}
	case unicode.IsDigit(c):
		for l.pos < len(l.src) && isNumChar(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		n, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			return token{Kind: tokPunct, Text: text, Pos: start}
		}
		return token{Kind: tokNumber, Num: n, Text: text, Pos: start}
	default:
		for _, mp := range multiPunct {
			if strings.HasPrefix(l.src[l.pos:], mp) {
				l.pos += len(mp)
				return token{Kind: tokPunct, Text: mp, Pos: start}
			}
		}
		l.pos++
		return token{Kind: tokPunct, Text: string(c), Pos: start}
	}
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isNumChar(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' || c == 'x' || c == 'X'
}

// parser

type parser struct {
	lex *lexer
	env *Env
	// strict records a top-level strict(...) modifier.
	strict bool
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf(format+" (at offset %d)", append(args, p.lex.tok.Pos)...)
}

func (p *parser) expectPunct(s string) error {
	if p.lex.tok.Kind != tokPunct || p.lex.tok.Text != s {
		return p.errf("expected %q, found %q", s, p.lex.tok.Text)
	}
	p.lex.next()
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.lex.tok.Kind == tokPunct && p.lex.tok.Text == s {
		p.lex.next()
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	if p.lex.tok.Kind != tokIdent {
		return "", p.errf("expected identifier, found %q", p.lex.tok.Text)
	}
	s := p.lex.tok.Text
	p.lex.next()
	return s, nil
}

func (p *parser) parseAssertion(name string) (*Assertion, error) {
	macro, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var a *Assertion
	switch macro {
	case "TESLA_WITHIN":
		fn, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		a = Within(name, fn, expr)
	case "TESLA_SYSCALL_PREVIOUSLY":
		exprs, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		a = Within(name, p.env.syscall(), Previously(exprs...))
	case "TESLA_SYSCALL_EVENTUALLY":
		exprs, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		a = Within(name, p.env.syscall(), Eventually(exprs...))
	case "TESLA_SYSCALL":
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		a = Within(name, p.env.syscall(), expr)
	case "TESLA_GLOBAL", "TESLA_PERTHREAD":
		bound, expr, err := p.parseBoundAndExpr()
		if err != nil {
			return nil, err
		}
		ctx := PerThread
		if macro == "TESLA_GLOBAL" {
			ctx = Global
		}
		a = Assert(name, ctx, bound, expr)
	case "TESLA_ASSERT":
		ctxName, err := p.ident()
		if err != nil {
			return nil, err
		}
		var ctx Context
		switch ctxName {
		case "global":
			ctx = Global
		case "perthread", "per_thread":
			ctx = PerThread
		default:
			return nil, p.errf("unknown context %q", ctxName)
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		bound, expr, err := p.parseBoundAndExpr()
		if err != nil {
			return nil, err
		}
		a = Assert(name, ctx, bound, expr)
	default:
		return nil, p.errf("unknown TESLA macro %q", macro)
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	a.Strict = p.strict
	return a, nil
}

// parseBoundAndExpr parses `start, end, expr`.
func (p *parser) parseBoundAndExpr() (Bound, Expr, error) {
	begin, err := p.parseStaticEvent()
	if err != nil {
		return Bound{}, nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return Bound{}, nil, err
	}
	end, err := p.parseStaticEvent()
	if err != nil {
		return Bound{}, nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return Bound{}, nil, err
	}
	expr, err := p.parseExpr()
	if err != nil {
		return Bound{}, nil, err
	}
	return Bound{Begin: begin, End: end}, expr, nil
}

func (p *parser) parseStaticEvent() (StaticEvent, error) {
	kw, err := p.ident()
	if err != nil {
		return StaticEvent{}, err
	}
	var kind StaticKind
	switch kw {
	case "call":
		kind = StaticCall
	case "returnfrom":
		kind = StaticReturn
	default:
		return StaticEvent{}, p.errf("expected call/returnfrom, found %q", kw)
	}
	if err := p.expectPunct("("); err != nil {
		return StaticEvent{}, err
	}
	fn, err := p.ident()
	if err != nil {
		return StaticEvent{}, err
	}
	if err := p.expectPunct(")"); err != nil {
		return StaticEvent{}, err
	}
	return StaticEvent{Kind: kind, Fn: fn}, nil
}

func (p *parser) parseExprList() ([]Expr, error) {
	var out []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.acceptPunct(",") {
			return out, nil
		}
	}
}

// parseExpr parses a boolean combination of unary expressions.
func (p *parser) parseExpr() (Expr, error) {
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	var op BoolOp
	var exprs []Expr
	for {
		switch {
		case p.acceptPunct("||"):
			if len(exprs) > 0 && op != OrOp {
				return nil, p.errf("mixed || and ^ require parentheses")
			}
			op = OrOp
		case p.acceptPunct("^"):
			if len(exprs) > 0 && op != XorOp {
				return nil, p.errf("mixed || and ^ require parentheses")
			}
			op = XorOp
		default:
			if len(exprs) == 0 {
				return first, nil
			}
			return &BoolExpr{Op: op, Exprs: exprs}, nil
		}
		if len(exprs) == 0 {
			exprs = append(exprs, first)
		}
		next, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, next)
	}
}

func (p *parser) parseUnary() (Expr, error) {
	tok := p.lex.tok
	if tok.Kind == tokPunct {
		switch tok.Text {
		case "(":
			p.lex.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expectPunct(")")
		case "[":
			return p.parseObjCMsg()
		}
		return nil, p.errf("unexpected %q", tok.Text)
	}
	if tok.Kind != tokIdent {
		return nil, p.errf("unexpected token %q", tok.Text)
	}

	switch tok.Text {
	case "TSEQUENCE":
		p.lex.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		exprs, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		return &Sequence{Exprs: exprs}, p.expectPunct(")")
	case "previously", "eventually":
		kw := tok.Text
		p.lex.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		exprs, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if kw == "previously" {
			return Previously(exprs...), nil
		}
		return Eventually(exprs...), nil
	case "optional":
		p.lex.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Optional{Expr: e}, p.expectPunct(")")
	case "strict", "conditional":
		kw := tok.Text
		p.lex.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if kw == "strict" {
			p.strict = true
		}
		return e, p.expectPunct(")")
	case "caller", "callee":
		kw := tok.Text
		p.lex.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		side := SideCallee
		if kw == "caller" {
			side = SideCaller
		}
		setSide(e, side)
		return e, p.expectPunct(")")
	case "ATLEAST":
		p.lex.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.lex.tok.Kind != tokNumber {
			return nil, p.errf("ATLEAST needs a count, found %q", p.lex.tok.Text)
		}
		min := int(p.lex.tok.Num)
		p.lex.next()
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		exprs, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		return &ATLeast{Min: min, Exprs: exprs}, p.expectPunct(")")
	case "incallstack":
		p.lex.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		fn, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &InCallStack{Fn: fn}, p.expectPunct(")")
	case "TESLA_ASSERTION_SITE":
		p.lex.next()
		return &AssertionSite{}, nil
	case "call", "called", "returnfrom":
		kw := tok.Text
		p.lex.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		fe, err := p.parseFnExpr()
		if err != nil {
			return nil, err
		}
		if kw == "returnfrom" {
			fe.Kind = FuncExit
		}
		return fe, p.expectPunct(")")
	}

	// Bare identifier: fn(args) [== val], var.field assignment, or a
	// struct-qualified field assignment (struct::var.field, the manifest
	// round-trip form).
	name := tok.Text
	p.lex.next()
	if p.acceptPunct("::") {
		varName, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("."); err != nil {
			return nil, err
		}
		return p.parseFieldAssign(varName, name)
	}
	if p.acceptPunct(".") {
		return p.parseFieldAssign(name, p.env.structOf(name))
	}
	if p.lex.tok.Kind == tokPunct && p.lex.tok.Text == "(" {
		fe, err := p.parseFnCallTail(name)
		if err != nil {
			return nil, err
		}
		if p.acceptPunct("==") {
			ret, err := p.parseVal()
			if err != nil {
				return nil, err
			}
			fe.Kind = FuncExit
			fe.Ret = &ret
		}
		return fe, nil
	}
	return nil, p.errf("expected event after %q", name)
}

// parseFnExpr parses `fn(args…)` inside call()/returnfrom().
func (p *parser) parseFnExpr() (*FunctionEvent, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.lex.tok.Kind == tokPunct && p.lex.tok.Text == "(" {
		return p.parseFnCallTail(name)
	}
	// Bare name: any arguments.
	return &FunctionEvent{Fn: name, Kind: FuncEntry}, nil
}

func (p *parser) parseFnCallTail(name string) (*FunctionEvent, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	fe := &FunctionEvent{Fn: name, Kind: FuncEntry}
	if p.acceptPunct(")") {
		return fe, nil
	}
	for {
		arg, err := p.parseVal()
		if err != nil {
			return nil, err
		}
		fe.Args = append(fe.Args, arg)
		if p.acceptPunct(")") {
			return fe, nil
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseFieldAssign(varName, structName string) (Expr, error) {
	field, err := p.ident()
	if err != nil {
		return nil, err
	}
	ev := &FieldAssignEvent{
		Struct: structName,
		Field:  field,
		Target: Var(varName),
		Value:  Any(""),
	}
	switch {
	case p.acceptPunct("++"):
		ev.Op = OpIncr
		return ev, nil
	case p.acceptPunct("+="):
		ev.Op = OpAddAssign
	case p.acceptPunct("="):
		ev.Op = OpAssign
	default:
		return nil, p.errf("expected =, += or ++ after %s.%s", varName, field)
	}
	val, err := p.parseVal()
	if err != nil {
		return nil, err
	}
	ev.Value = val
	return ev, nil
}

func (p *parser) parseObjCMsg() (Expr, error) {
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	recv, err := p.parseVal()
	if err != nil {
		return nil, err
	}
	var selParts []string
	args := []ArgPattern{recv}
	for {
		part, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.acceptPunct(":") {
			selParts = append(selParts, part+":")
			arg, err := p.parseVal()
			if err != nil {
				return nil, err
			}
			args = append(args, arg)
			if p.acceptPunct("]") {
				break
			}
			continue
		}
		// Unary selector.
		selParts = append(selParts, part)
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		break
	}
	return &FunctionEvent{Fn: strings.Join(selParts, ""), Kind: FuncEntry, Args: args, ObjC: true}, nil
}

// parseVal parses an argument pattern (grammar rule val).
func (p *parser) parseVal() (ArgPattern, error) {
	if p.acceptPunct("&") {
		inner, err := p.parseVal()
		if err != nil {
			return ArgPattern{}, err
		}
		inner.Indirect = true
		return inner, nil
	}
	if p.acceptPunct("-") {
		if p.lex.tok.Kind != tokNumber {
			return ArgPattern{}, p.errf("expected number after -")
		}
		v := -p.lex.tok.Num
		p.lex.next()
		return Int(v), nil
	}
	tok := p.lex.tok
	switch tok.Kind {
	case tokNumber:
		p.lex.next()
		return Int(tok.Num), nil
	case tokIdent:
		name := tok.Text
		p.lex.next()
		switch name {
		case "ANY", "any":
			if err := p.expectPunct("("); err != nil {
				return ArgPattern{}, err
			}
			t, err := p.ident()
			if err != nil {
				return ArgPattern{}, err
			}
			return Any(t), p.expectPunct(")")
		case "flags", "bitmask":
			if err := p.expectPunct("("); err != nil {
				return ArgPattern{}, err
			}
			v, err := p.parseFlagsValue()
			if err != nil {
				return ArgPattern{}, err
			}
			if err := p.expectPunct(")"); err != nil {
				return ArgPattern{}, err
			}
			if name == "flags" {
				return Flags(v), nil
			}
			return Bitmask(v), nil
		}
		if v, ok := p.env.constVal(name); ok {
			return Int(v), nil
		}
		return Var(name), nil
	default:
		return ArgPattern{}, p.errf("expected value, found %q", tok.Text)
	}
}

// parseFlagsValue parses `F1 | F2 | 0x4` — a C flags expression.
func (p *parser) parseFlagsValue() (int64, error) {
	var v int64
	for {
		tok := p.lex.tok
		switch tok.Kind {
		case tokNumber:
			v |= tok.Num
			p.lex.next()
		case tokIdent:
			c, ok := p.env.constVal(tok.Text)
			if !ok {
				return 0, p.errf("unknown flag constant %q", tok.Text)
			}
			v |= c
			p.lex.next()
		default:
			return 0, p.errf("expected flag, found %q", tok.Text)
		}
		if !p.acceptPunct("|") {
			return v, nil
		}
	}
}

// setSide applies a caller/callee modifier to every function event in e.
func setSide(e Expr, side InstrSide) {
	Walk(e, func(e Expr) {
		if fe, ok := e.(*FunctionEvent); ok {
			fe.Side = side
		}
	})
}
