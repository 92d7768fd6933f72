package vm

import (
	"bytes"
	"errors"
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

// TestStepLimit: MaxSteps bounds each Run, not the VM's life. Runs that
// each stay under it succeed however far their total goes past it, a run
// that goes past it fails with ErrMaxSteps — and the VM runs again after
// that — while Steps, the monitor's clock, counts across every run.
func TestStepLimit(t *testing.T) {
	prog := compile(t, `
int spin(int n) { int i = 0; while (i < n) { i++; } return i; }
int main() { while (1) { } return 0; }`).Program
	vm := New(prog)
	vm.MaxSteps = 10_000
	if _, err := vm.Run("spin", 100); err != nil {
		t.Fatal(err)
	}
	per := vm.Steps()
	if per >= vm.MaxSteps/2 {
		t.Fatalf("spin(100) took %d steps; the test needs runs well under the %d budget", per, vm.MaxSteps)
	}
	const runs = 50
	for i := 1; i < runs; i++ {
		if _, err := vm.Run("spin", 100); err != nil {
			t.Fatalf("run %d of %d under the budget: %v", i+1, runs, err)
		}
	}
	if got := vm.Steps(); got != runs*per || got <= vm.MaxSteps {
		t.Fatalf("Steps() = %d after %d runs of %d steps; want the cumulative count, past MaxSteps %d", got, runs, per, vm.MaxSteps)
	}
	if _, err := vm.Run("main"); err != ErrMaxSteps {
		t.Fatalf("runaway run: err = %v, want ErrMaxSteps", err)
	}
	if _, err := vm.Run("spin", 100); err != nil {
		t.Fatalf("run after the runaway one: %v", err)
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

// TestUnresolvedSymbolsFailOnlyWhenReached: New resolves every symbol the
// code names, but a missing function, function address, global or
// intrinsic is an error only on the branch that reaches it, with the same
// text as when the VM looked it up at each execution.
func TestUnresolvedSymbolsFailOnlyWhenReached(t *testing.T) {
	cases := []struct {
		in   ir.Instr
		want string
	}{
		{ir.Instr{Op: ir.OpCall, Dst: 1, Sym: "missing_fn"}, `vm: call to undefined function "missing_fn"`},
		{ir.Instr{Op: ir.OpFnAddr, Dst: 1, Sym: "missing_fn"}, `vm: unknown function "missing_fn"`},
		{ir.Instr{Op: ir.OpGlobalAddr, Dst: 1, Sym: "missing_global"}, `vm: unknown global "missing_global"`},
		{ir.Instr{Op: ir.OpCall, Dst: 1, Sym: "__tesla_bogus"}, "vm: instrumented code (__tesla_bogus) without an attached monitor thread"},
	}
	for _, c := range cases {
		// main(a): if a { <instruction>; return 1 } return 7
		mod := &ir.Module{Name: "m", Funcs: []*ir.Func{{Name: "main", NParams: 1, NRegs: 2, Blocks: []*ir.Block{
			{Name: "entry", Instrs: []ir.Instr{{Op: ir.OpCondBr, X: 0, Blk1: 1, Blk2: 2}}},
			{Name: "taken", Instrs: []ir.Instr{c.in, {Op: ir.OpConst, Dst: 1, Imm: 1}, {Op: ir.OpRet, X: 1, HasX: true}}},
			{Name: "untaken", Instrs: []ir.Instr{{Op: ir.OpConst, Dst: 1, Imm: 7}, {Op: ir.OpRet, X: 1, HasX: true}}},
		}}}}
		vm := New(mod)
		if got, err := vm.Run("main", 0); err != nil || got != 7 {
			t.Errorf("%s: untaken branch: got %d, %v; want 7, nil", c.in.Sym, got, err)
		}
		if _, err := vm.Run("main", 1); err == nil || err.Error() != c.want {
			t.Errorf("%s: taken branch: err = %v, want %q", c.in.Sym, err, c.want)
		}
	}
}

// TestRegisterStackGrowth: every frame's registers live on one stack that
// a deep call reallocates, so a frame must re-derive its registers after
// each call out. Each level of deep makes a second call after the first
// returns, with an argument computed after it, and keeps eight locals
// live across both.
func TestRegisterStackGrowth(t *testing.T) {
	src := `
int leaf(int x) { return x; }
int deep(int n) {
	if (n == 0) { return 0; }
	int a = n * 2;
	int b = n * 3;
	int c = n * 5;
	int d = n * 7;
	int e = a + b;
	int f = c + d;
	int g = e - f;
	int h = g + 9 * n;
	int r = deep(n - 1);
	int s = leaf(n + a);
	return r + s + b + c + d + e + f + h;
}
`
	vm := New(compile(t, src).Program)
	for _, n := range []int64{1, 10, 3000, 3000} {
		// s = 3n, h = 2n: deep(n) = deep(n-1) + (3+3+5+7+5+12+2)n = deep(n-1) + 37n.
		want := 37 * n * (n + 1) / 2
		got, err := vm.Run("deep", n)
		if err != nil || got != want {
			t.Fatalf("deep(%d) = %d, %v; want %d", n, got, err, want)
		}
	}
	if grown := len(vm.stack); grown < 256<<4 {
		t.Fatalf("register stack is %d words; the test wants at least four reallocations", grown)
	}
	if vm.sp != 0 {
		t.Fatalf("stack pointer %d after the last run returned", vm.sp)
	}
}

// TestErrorLeavesVMReusable: an error raised inside nested calls with
// allocas unwinds every frame, so the same VM runs again correctly. After
// each error the call stack, register stack and alloca stack are empty,
// and the heap stays the same size over 100 rounds of every error kind.
func TestErrorLeavesVMReusable(t *testing.T) {
	src := `
struct s { int v; };
int rec(int n) { int m = n + 1; return rec(m); }
int fail(int kind) {
	int local = kind * 3;
	if (kind == 1) { return local / (kind - 1); }
	if (kind == 2) { struct s *q = 0; return q->v; }
	if (kind == 3) { int r = kind(1); return r; }
	if (kind == 4) { while (1) { local++; } }
	if (kind == 5) { return rec(local); }
	return local;
}
int outer(int kind) {
	int a = kind + 1;
	int r = fail(kind);
	return r + a;
}
int main(int kind) { int b = kind; return outer(b) + 1; }
`
	vm := New(compile(t, src).Program)
	vm.maxDepth = 200
	wants := []string{1: "division by zero", 2: "invalid load", 3: "bad pointer", 4: ErrMaxSteps.Error(), 5: "call depth exceeded"}
	heap := -1
	for round := 0; round < 100; round++ {
		for kind := int64(1); kind <= 5; kind++ {
			if kind == 4 {
				vm.MaxSteps = 5_000
			}
			_, err := vm.Run("main", kind)
			vm.MaxSteps = 0
			if kind == 4 && !errors.Is(err, ErrMaxSteps) || kind != 4 && (err == nil || !strings.Contains(err.Error(), wants[kind])) {
				t.Fatalf("round %d kind %d: err = %v, want %q", round, kind, err, wants[kind])
			}
			for _, fn := range []string{"main", "outer", "fail", "rec"} {
				if vm.InStack(fn) {
					t.Fatalf("round %d kind %d: %s still on the call stack", round, kind, fn)
				}
			}
			if vm.sp != 0 || len(vm.allocas) != 0 {
				t.Fatalf("round %d kind %d: stack pointer %d, %d allocas left", round, kind, vm.sp, len(vm.allocas))
			}
			if got, err := vm.Run("main", 7); err != nil || got != 30 {
				t.Fatalf("round %d after kind %d: main(7) = %d, %v; want 30", round, kind, got, err)
			}
		}
		if heap < 0 {
			heap = len(vm.heap)
		} else if len(vm.heap) != heap {
			t.Fatalf("round %d: heap holds %d allocations, %d after the first round", round, len(vm.heap), heap)
		}
	}
}
