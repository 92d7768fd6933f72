package spec

import "fmt"

// ParseExpr parses a bare TESLA expression (the body of an assertion macro).
func ParseExpr(src string, env *Env) (Expr, error) {
	p := &parser{lex: newLexer(src), env: env}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.lex.atEOF() {
		return nil, fmt.Errorf("spec: trailing input %q", p.lex.rest())
	}
	return e, nil
}
