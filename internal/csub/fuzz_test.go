package csub_test

import (
	"strings"
	"testing"

	"tesla/internal/build"
	"tesla/internal/csub"
)

// FuzzCsubParse feeds arbitrary source through the whole front end: the
// parser must never panic and must position every error ("file:line: ..."),
// and whatever parses must also survive the compiler (type checker and IR
// lowering) without panicking — compile errors are fine, crashes are not.
func FuzzCsubParse(f *testing.F) {
	seeds := []string{
		``,
		`int g = 3;`,
		`int g = -3; int h = !0;`,
		`#define N 4
struct box { int v; int next; };
int sum(struct box *b, int n) {
	int i = 0; int acc = 0;
	while (i < n) { acc = acc + b->v; i = i + 1; }
	return acc + N;
}`,
		`int open(int fd);
int main(int fd) {
	TESLA_SYSCALL_PREVIOUSLY(open(fd) == 0);
	return open(fd);
}`,
		`int f() { TESLA_WITHIN(f, eventually(g(ANY(ptr)) == 1)); return 0; }`,
		`int f(int x) { if (x) { return 1; } else { return 0; } }`,
		`int f() { TESLA_WITHIN(f, x()) }`, // missing semicolon
		`int g = x;`,                       // non-constant initialiser
		`struct s { int a; }; int f(struct s *p) { p->a = 1; return p[0]; }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		file, err := csub.Parse("fuzz.c", src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fuzz.c:") {
				t.Fatalf("parse error not positioned: %v", err)
			}
			return
		}
		if file == nil {
			t.Fatal("Parse returned nil file without error")
		}
		// The compiler runs its own assertion parser over TESLA macro text
		// and type-checks the AST; none of it may panic on parser-accepted
		// input.
		_, _ = build.Run(map[string]string{"fuzz.c": src}, build.Options{Jobs: 1})
	})
}
