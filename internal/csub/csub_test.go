package csub

import (
	"strings"
	"testing"
)

func parse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("test.c", src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseStructs(t *testing.T) {
	f := parse(t, `
struct ucred { int uid; };
struct protosw { int (*pru_sopoll)(struct socket *, struct ucred *); };
struct socket { struct protosw *so_proto; int so_state; };
`)
	if len(f.Structs) != 3 {
		t.Fatalf("structs = %d", len(f.Structs))
	}
	ps := f.Structs[1]
	if ps.Fields[0].Name != "pru_sopoll" || ps.Fields[0].Type.Kind != TFnPtr {
		t.Fatalf("fnptr field: %+v", ps.Fields[0])
	}
	so := f.Structs[2]
	if so.Fields[0].Type != (Type{Kind: TPtr, Struct: "protosw"}) {
		t.Fatalf("ptr field: %+v", so.Fields[0])
	}
	if so.FieldIndex("so_state") != 1 || so.FieldIndex("nope") != -1 {
		t.Fatal("FieldIndex wrong")
	}
}

func TestParseDefinesAndGlobals(t *testing.T) {
	f := parse(t, `
#define P_SUGID 256
#define NEG -5
int counter = 0;
int limit = -3;
int bare;
`)
	if f.Defines["P_SUGID"] != 256 || f.Defines["NEG"] != -5 {
		t.Fatalf("defines = %v", f.Defines)
	}
	if len(f.Globals) != 3 {
		t.Fatalf("globals = %d", len(f.Globals))
	}
	if f.Globals[1].Init.(*IntLit).V != -3 {
		t.Fatal("negative global init")
	}
	if f.Globals[2].Init != nil {
		t.Fatal("bare global should have nil init")
	}
}

func TestParseFunctionShapes(t *testing.T) {
	f := parse(t, `
int noargs() { return 1; }
int voidargs(void) { return 2; }
struct box *maker(int n) { return alloc(box); }
struct box { int v; };
long counterish(long a, struct box *b) { return a; }
`)
	if len(f.Funcs) != 4 {
		t.Fatalf("funcs = %d", len(f.Funcs))
	}
	if len(f.Funcs[0].Params) != 0 || len(f.Funcs[1].Params) != 0 {
		t.Fatal("no-arg forms")
	}
	if f.Funcs[3].Params[1].Type.Struct != "box" {
		t.Fatal("struct param")
	}
}

func TestParseStatements(t *testing.T) {
	f := parse(t, `
struct s { int n; };
int main(int a) {
	int x = 1;
	struct s *p = alloc(s);
	x = x + 1;
	x += 2;
	x++;
	p->n = 5;
	p->n += 1;
	p->n++;
	if (x > 3 && a) { x = 0; } else if (x < 0) { x = 1; } else { x = 2; }
	while (x != 0) { x = x - 1; }
	print(x);
	return p->n;
}
`)
	body := f.Funcs[0].Body
	if len(body) < 10 {
		t.Fatalf("statements = %d", len(body))
	}
	// Spot-check the field increments.
	as, ok := body[6].(*AssignStmt)
	if !ok || as.Op != Add {
		t.Fatalf("p->n += 1: %#v", body[6])
	}
	fe := as.LHS.(*FieldExpr)
	if fe.Name != "n" {
		t.Fatal("field name")
	}
}

func TestParseTeslaCapture(t *testing.T) {
	f := parse(t, `
int g(int vp) {
	TESLA_SYSCALL_PREVIOUSLY(mac_check(ANY(ptr), vp) == 0);
	TESLA_WITHIN(main, eventually(
		audit(vp) == 0));
	return 0;
}
`)
	var teslas []*TeslaStmt
	for _, s := range f.Funcs[0].Body {
		if ts, ok := s.(*TeslaStmt); ok {
			teslas = append(teslas, ts)
		}
	}
	if len(teslas) != 2 {
		t.Fatalf("tesla stmts = %d", len(teslas))
	}
	if !strings.HasPrefix(teslas[0].Text, "TESLA_SYSCALL_PREVIOUSLY(") ||
		!strings.HasSuffix(teslas[0].Text, ")") {
		t.Fatalf("capture 1 = %q", teslas[0].Text)
	}
	if !strings.Contains(teslas[1].Text, "eventually") {
		t.Fatalf("capture 2 = %q", teslas[1].Text)
	}
	if teslas[0].Line != 3 {
		t.Fatalf("line = %d", teslas[0].Line)
	}
}

func TestParseCommentsAndPrecedence(t *testing.T) {
	f := parse(t, `
// line comment
/* block
   comment */
int main() {
	int x = 1 + 2 * 3;        // 7, not 9
	int y = (1 + 2) * 3;      // 9
	int z = 1 < 2 == 1;       // comparisons bind tighter than ==
	int w = 1 | 2 & 3;
	return x;
}
`)
	decl := f.Funcs[0].Body[0].(*DeclStmt)
	bin := decl.Decl.Init.(*BinExpr)
	if bin.Op != "+" {
		t.Fatalf("precedence: top op %q", bin.Op)
	}
	if _, ok := bin.Y.(*BinExpr); !ok {
		t.Fatal("2*3 should nest under +")
	}
}

func TestParseIndirectCalls(t *testing.T) {
	f := parse(t, `
struct ops { int (*poll)(int); };
int main(struct ops *o, int x) {
	int r = o->poll(x);
	return r;
}
`)
	decl := f.Funcs[0].Body[0].(*DeclStmt)
	call := decl.Decl.Init.(*CallExpr)
	if _, ok := call.Fn.(*FieldExpr); !ok {
		t.Fatalf("indirect call through field: %#v", call.Fn)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`int f( { return 0; }`,
		`int f() { return 0 }`,
		`struct s { int; };`,
		`int f() { 1 = 2; }`,
		`int f() { if x { } }`,
		`int f() { TESLA_WITHIN(f, x()) }`, // missing semicolon
		`#define X`,
		`int f() { int x = ; }`,
		`bogus f() { }`,
		`int f() { while (1) { return 0; }`, // unterminated
		`/* unterminated`,
	}
	for _, src := range bad {
		if _, err := Parse("bad.c", src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Parse("pos.c", "int f() {\n\tint x = ;\n}\n")
	if err == nil || !strings.Contains(err.Error(), "pos.c:2") {
		t.Fatalf("error lacks position: %v", err)
	}
}

func TestParseIndexExpr(t *testing.T) {
	f := parse(t, `
struct pair { int a; int b; };
int main(int i) {
	struct pair *p = alloc(pair);
	p[0] = 5;
	p[1] += 2;
	p[i]++;
	int v = p[i + 1];
	return p[0] + v;
}
`)
	fn := f.Funcs[0]
	as, ok := fn.Body[1].(*AssignStmt)
	if !ok {
		t.Fatalf("stmt 1 = %T", fn.Body[1])
	}
	ix, ok := as.LHS.(*IndexExpr)
	if !ok || as.Op != Set {
		t.Fatalf("lhs = %T op = %v", as.LHS, as.Op)
	}
	if _, ok := ix.X.(*Ident); !ok {
		t.Fatalf("index base = %T", ix.X)
	}
	if lit, ok := ix.Index.(*IntLit); !ok || lit.V != 0 {
		t.Fatalf("index = %#v", ix.Index)
	}
	if as2 := fn.Body[2].(*AssignStmt); as2.Op != Add {
		t.Fatalf("op = %v", as2.Op)
	}
	if as3 := fn.Body[3].(*AssignStmt); as3.Op != Incr {
		t.Fatalf("op = %v", as3.Op)
	}
	// Nested expression index.
	d := fn.Body[4].(*DeclStmt)
	if _, ok := d.Decl.Init.(*IndexExpr).Index.(*BinExpr); !ok {
		t.Fatal("index expression not parsed as expression")
	}
}

func TestParseIndexErrors(t *testing.T) {
	for _, src := range []string{
		`int main() { int v = p[; return v; }`,
		`int main() { int v = p[1; return v; }`,
		`int main() { p[0]() = 2; return 0; }`,
	} {
		if _, err := Parse("e.c", src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestFuncExtent: each definition's extent runs from its return type
// through its closing brace, on the line of its first token, and covers
// neither the comments nor the globals around it.
func TestFuncExtent(t *testing.T) {
	src := `#define N 2
int g = 1; // a global
/* a comment
   over two lines */ struct s *
make(int n) { return alloc(s); }
int f(int x) {
	if (x) { return N; }
	return 0;
}
`
	f := parse(t, src)
	want := []struct {
		text string
		line int
	}{
		{"struct s *\nmake(int n) { return alloc(s); }", 4},
		{"int f(int x) {\n\tif (x) { return N; }\n\treturn 0;\n}", 6},
	}
	if len(f.Funcs) != len(want) || f.Src != src {
		t.Fatalf("parsed %d functions from a %d-byte Src", len(f.Funcs), len(f.Src))
	}
	for i, w := range want {
		fn := f.Funcs[i]
		if got := f.Src[fn.Start:fn.End]; got != w.text || fn.StartLine != w.line {
			t.Errorf("%s: extent %q on line %d, want %q on line %d", fn.Name, got, fn.StartLine, w.text, w.line)
		}
	}
}
