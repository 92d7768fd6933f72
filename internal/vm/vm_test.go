package vm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tesla/internal/build"
	"tesla/internal/core"
	"tesla/internal/ir"
)

// compile builds a one-file csub program through the build graph,
// uninstrumented.
func compile(t *testing.T, src string) *build.Result {
	t.Helper()
	res, err := build.Run(map[string]string{"t.c": src}, build.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// run compiles and executes a csub program.
func run(t *testing.T, src string, entry string, args ...int64) (int64, *VM) {
	t.Helper()
	vm := New(compile(t, src).Program)
	ret, err := vm.Run(entry, args...)
	if err != nil {
		t.Fatal(err)
	}
	return ret, vm
}

func TestArithmeticAndControlFlow(t *testing.T) {
	cases := []struct {
		src  string
		args []int64
		want int64
	}{
		{`int main(int a, int b) { return a + b * 2; }`, []int64{3, 4}, 11},
		{`int main(int a) { if (a > 5) { return 1; } return 0; }`, []int64{7}, 1},
		{`int main(int a) { if (a > 5) { return 1; } return 0; }`, []int64{3}, 0},
		{`int main(int n) {
			int acc = 0;
			int i = 0;
			while (i < n) { acc += i; i++; }
			return acc;
		}`, []int64{10}, 45},
		{`int main(int a) { return -a; }`, []int64{5}, -5},
		{`int main(int a) { return !a; }`, []int64{0}, 1},
		{`int main(int a, int b) { return a % b; }`, []int64{17, 5}, 2},
		{`int main(int a, int b) { return a / b; }`, []int64{17, 5}, 3},
		{`int main(int a) { return a & 6 | 1; }`, []int64{5}, 5},
		{`int main(int a) { return a ^ 3; }`, []int64{5}, 6},
		// Short-circuit semantics: the RHS must not run.
		{`int boom(int x) { return x / 0; }
		  int main(int a) { if (a > 0 || boom(a)) { return 1; } return 0; }`, []int64{1}, 1},
		{`int boom(int x) { return x / 0; }
		  int main(int a) { if (a > 0 && boom(a)) { return 1; } return 0; }`, []int64{-1}, 0},
	}
	for i, c := range cases {
		got, _ := run(t, c.src, "main", c.args...)
		if got != c.want {
			t.Errorf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}

func TestStructsAndHeap(t *testing.T) {
	src := `
struct node { int v; struct node *next; };
int main(int n) {
	struct node *head = alloc(node);
	head->v = 1;
	struct node *second = alloc(node);
	second->v = 2;
	head->next = second;
	head->next->v += 10;
	return head->v + head->next->v;
}
`
	got, _ := run(t, src, "main", 0)
	if got != 13 {
		t.Fatalf("got %d", got)
	}
}

func TestFunctionPointers(t *testing.T) {
	src := `
struct ops { int (*fn)(int); };
int double_it(int x) { return x * 2; }
int triple_it(int x) { return x * 3; }
int main(int which) {
	struct ops *o = alloc(ops);
	if (which) { o->fn = double_it; } else { o->fn = triple_it; }
	return o->fn(10);
}
`
	if got, _ := run(t, src, "main", 1); got != 20 {
		t.Fatalf("double: %d", got)
	}
	if got, _ := run(t, src, "main", 0); got != 30 {
		t.Fatalf("triple: %d", got)
	}
}

func TestGlobalsAndRecursion(t *testing.T) {
	src := `
int calls = 0;
int fib(int n) {
	calls += 1;
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main(int n) {
	int r = fib(n);
	return r * 1000 + calls;
}
`
	got, _ := run(t, src, "main", 10)
	if got/1000 != 55 {
		t.Fatalf("fib(10) = %d", got/1000)
	}
	if got%1000 != 177 {
		t.Fatalf("calls = %d", got%1000)
	}
}

func TestPrintBuiltin(t *testing.T) {
	prog := compile(t, `
int main() { print(42); print(1, 2); return 0; }`).Program
	vm := New(prog)
	var buf bytes.Buffer
	vm.Out = &buf
	if _, err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "42\n1 2\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`int main(int a) { return a / 0; }`, "division by zero"},
		{`int main(int a) { return a % 0; }`, "modulo by zero"},
		{`struct s { int v; };
		  int main() { struct s *p = alloc(s); p->v = 0; return p->v / p->v; }`, "division"},
		{`int main() { return missing_fn(1); }`, "undefined function"},
		{`int main(int a) { int r = a(1); return r; }`, "bad pointer"},
		{`int rec(int n) { return rec(n); } int main() { return rec(1); }`, "depth"},
	}
	for i, c := range cases {
		_, err := New(compile(t, c.src).Program).Run("main", 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want %q", i, err, c.want)
		}
	}
}

func TestNullDereference(t *testing.T) {
	src := `
struct s { int v; };
int main() {
	struct s *p = alloc(s);
	struct s *q = 0;
	return q->v;
}
`
	prog := compile(t, src).Program
	vm := New(prog)
	if _, err := vm.Run("main"); err == nil {
		t.Fatal("null dereference should fail")
	}
}

func TestStepLimit(t *testing.T) {
	prog := compile(t, `
int main() { while (1) { } return 0; }`).Program
	vm := New(prog)
	vm.MaxSteps = 10_000
	if _, err := vm.Run("main"); err != ErrMaxSteps {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownEntry(t *testing.T) {
	vm := New(compile(t, `int main() { return 0; }`).Program)
	if _, err := vm.Run("nope"); err == nil {
		t.Fatal("expected unknown-function error")
	}
}

func TestMemoryInterface(t *testing.T) {
	src := `
struct s { int v; };
int stash = 0;
int main() {
	struct s *p = alloc(s);
	p->v = 77;
	stash = p;
	return p;
}
`
	prog := compile(t, src).Program
	vm := New(prog)
	addr, err := vm.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := vm.Load(coreValue(addr))
	if !ok || v != 77 {
		t.Fatalf("Load(%#x) = %d, %v", addr, v, ok)
	}
	if _, ok := vm.Load(0); ok {
		t.Fatal("null load should fail")
	}
}

// TestQuickOptimizeEquivalence: the post-instrumentation optimiser must not
// change program results.
func TestQuickOptimizeEquivalence(t *testing.T) {
	src := `
int helper(int a, int b) {
	int unused = a * 99;
	int t = a + b;
	return t % 1009;
}
int main(int a, int b) {
	int x = helper(a, b);
	int y = helper(b, a);
	int dead = x * y;
	if (x > y) { return x - y; }
	return y - x + helper(a, a);
}
`
	// The unit's module is the compiler's unoptimised output.
	prog := compile(t, src).Units[0].Module
	// Optimize writes no function, only its own module's Funcs slice.
	opt := &ir.Module{Name: prog.Name, Structs: prog.Structs, Globals: prog.Globals,
		Funcs: append([]*ir.Func(nil), prog.Funcs...)}
	ir.Optimize(opt)

	rng := rand.New(rand.NewSource(99))
	f := func() bool {
		a, b := rng.Int63n(10000), rng.Int63n(10000)
		r1, err1 := New(prog).Run("main", a, b)
		r2, err2 := New(opt).Run("main", a, b)
		return err1 == nil && err2 == nil && r1 == r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// And the optimiser actually removed something.
	if count(opt) >= count(prog) {
		t.Fatalf("optimizer removed nothing: %d vs %d", count(opt), count(prog))
	}
}

func count(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

func coreValue(v int64) core.Value { return core.Value(v) }

func TestIndexedAccess(t *testing.T) {
	// p[i] addresses the i-th word of an allocation; stores and loads
	// round-trip through the heap, including compound assignment.
	src := `
struct triple { int a; int b; int c; };
int main(int i) {
	struct triple *p = alloc(triple);
	p[0] = 5;
	p[1] = 7;
	p[2] = p[0] + p[1];
	p[i] += 10;
	p[0]++;
	return p[0] + p[1] + p[2];
}
`
	got, _ := run(t, src, "main", 1)
	if got != 35 {
		t.Fatalf("got %d, want 35", got)
	}
	// Index stores alias the named fields: p[1] is p->b.
	src2 := `
struct triple { int a; int b; int c; };
int main(int x) {
	struct triple *p = alloc(triple);
	p->b = x;
	p[1] += 1;
	return p->b;
}
`
	got2, _ := run(t, src2, "main", 41)
	if got2 != 42 {
		t.Fatalf("got %d, want 42", got2)
	}
}

func TestIndexOutOfBounds(t *testing.T) {
	src := `
struct pair { int a; int b; };
int main(int i) {
	struct pair *p = alloc(pair);
	return p[i];
}
`
	prog := compile(t, src).Program
	if _, err := New(prog).Run("main", 99999); err == nil {
		t.Fatal("out-of-range index must be a VM error")
	}
}
