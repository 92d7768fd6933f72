package compiler

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tesla/internal/csub"
)

// recompileBase is the file TestRecompileMatchesCompile and FuzzRecompile
// edit: four functions, a struct, a #define read by a body and by the
// assertion, and an assertion in the third function.
const recompileBase = `#define LIMIT 4
struct conn { int state; int seq; };
int open_conn(struct conn *c) {
	c->state = 1;
	return check(c);
}
int check(struct conn *c) {
	if (c->state > LIMIT) { return 0; }
	return 1;
}
int send(struct conn *c, int n) {
	int ok = check(c);
	TESLA_WITHIN(send, previously(check(c) == LIMIT));
	c->seq += n;
	return ok;
}
int main(int n) {
	struct conn *c = alloc(conn);
	open_conn(c);
	return send(c, n);
}
`

// recompiler compiles successive versions of one file the way the build
// graph does: the context is rebuilt only when the file's interface
// changes, and each Recompile takes the last unit that compiled.
type recompiler struct {
	iface []byte
	ctx   *Context
	prev  *Unit
}

// step compiles src both ways. It returns the unit Recompile made, or nil
// when the source does not parse, its context cannot be built or the
// file does not compile, after checking that both ways agree.
func (r *recompiler) step(t *testing.T, src string) *Unit {
	t.Helper()
	f, err := csub.Parse("conn.c", src)
	if err != nil {
		return nil
	}
	iface, err := InterfaceOf(f).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if r.ctx == nil || !bytes.Equal(iface, r.iface) {
		ctx, err := NewContext(f)
		if err != nil {
			return nil
		}
		r.ctx, r.iface = ctx, iface
	}
	want, wantErr := CompileFile(f, r.ctx)
	got, gotErr := Recompile(f, r.ctx, r.prev)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Recompile's error %v, CompileFile's %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if g, w := got.Module.String(), want.Module.String(); g != w {
		t.Fatalf("Recompile printed\n%s\nCompileFile\n%s", g, w)
	}
	// The printed form leaves out instruction lines; the encoding does not.
	if g, w := got.Module.AppendBinary(nil), want.Module.AppendBinary(nil); !bytes.Equal(g, w) {
		t.Fatalf("Recompile's module encodes differently from CompileFile's:\n%s", got.Module)
	}
	if g, w := assertionLines(got), assertionLines(want); g != w {
		t.Fatalf("Recompile's assertions\n%s\nCompileFile's\n%s", g, w)
	}
	r.prev = got
	return got
}

func assertionLines(u *Unit) string {
	var b strings.Builder
	for _, a := range u.Assertions {
		fmt.Fprintf(&b, "%s: %s\n", a.Name, a)
	}
	return b.String()
}

// shared counts the functions of u that are one of prev's.
func shared(prev, u *Unit) int {
	n := 0
	for _, f := range u.Module.Funcs {
		for _, p := range prev.Module.Funcs {
			if f == p {
				n++
			}
		}
	}
	return n
}

// TestRecompileMatchesCompile: through a sequence of edits, recompiling
// against the last unit prints and encodes the same module, and yields
// the same assertions in the same order, as compiling from scratch; and
// it reuses exactly the functions whose text, first line and context are
// unchanged. A compile error leaves the last good unit as the one the fix
// recompiles against.
func TestRecompileMatchesCompile(t *testing.T) {
	r := &recompiler{}
	src := recompileBase
	if r.step(t, src) == nil {
		t.Fatal("base file does not compile")
	}
	steps := []struct {
		what     string
		old, new string
		reused   int // functions shared with the last unit; -1: the step fails
	}{
		{"line-preserving body edit", "return 1;\n}", "return 2;\n}", 3},
		{"line added to the first function", "c->state = 1;\n", "c->state = 1;\n\tc->seq = 0;\n", 0},
		{"no-op", "", "", 4},
		{"functions swapped",
			"int check(struct conn *c) {\n\tif (c->state > LIMIT) { return 0; }\n\treturn 2;\n}\nint send(struct conn *c, int n) {\n\tint ok = check(c);\n\tTESLA_WITHIN(send, previously(check(c) == LIMIT));\n\tc->seq += n;\n\treturn ok;\n}\n",
			"int send(struct conn *c, int n) {\n\tint ok = check(c);\n\tTESLA_WITHIN(send, previously(check(c) == LIMIT));\n\tc->seq += n;\n\treturn ok;\n}\nint check(struct conn *c) {\n\tif (c->state > LIMIT) { return 0; }\n\treturn 2;\n}\n",
			0}, // the interface lists functions in order, so the context changes
		{"function renamed", "open_conn", "setup_conn", 0},
		{"assertion added", "\tsetup_conn(c);\n", "\tsetup_conn(c);\n\tTESLA_WITHIN(main, eventually(check(c) == 1));\n", 3},
		{"define value changed", "#define LIMIT 4", "#define LIMIT 9", 0},
		{"struct field added", "struct conn { int state;", "struct conn { int flags; int state;", 0},
		{"compile error", "c->seq += n;", "nosuch += n;", -1},
		{"fix", "nosuch += n;", "c->seq += n;", 4},
		{"function deleted and another added",
			"int main(int n) {",
			"int audit(int n) { return n; }\nint main(int n) {",
			0},
	}
	for _, step := range steps {
		if step.what == "function renamed" {
			src = strings.ReplaceAll(src, step.old, step.new)
		} else if step.old != "" {
			if !strings.Contains(src, step.old) {
				t.Fatalf("%s: %q not in\n%s", step.what, step.old, src)
			}
			src = strings.Replace(src, step.old, step.new, 1)
		}
		if step.what == "function deleted and another added" {
			start := strings.Index(src, "int setup_conn(")
			end := start + strings.Index(src[start:], "\n}\n") + 3
			src = src[:start] + src[end:]
		}
		prev := r.prev
		u := r.step(t, src)
		switch {
		case step.reused < 0 && u != nil:
			t.Fatalf("%s: compiled", step.what)
		case step.reused < 0:
			if r.prev != prev {
				t.Fatalf("%s: a failed compile replaced the last unit", step.what)
			}
		case u == nil:
			t.Fatalf("%s: did not compile:\n%s", step.what, src)
		case shared(prev, u) != step.reused:
			t.Fatalf("%s: %d functions reused, want %d", step.what, shared(prev, u), step.reused)
		}
	}
	if n := len(r.prev.Assertions); n != 2 {
		t.Fatalf("final unit has %d assertions, want 2", n)
	}
}

// FuzzRecompile: after an arbitrary byte edit of the base file,
// recompiling against the base's unit agrees with compiling from scratch
// whenever the edited file compiles, and fails with the same error when
// it does not.
func FuzzRecompile(f *testing.F) {
	f.Add(uint16(strings.Index(recompileBase, "return 1;")+7), uint8(1), []byte("7"))
	f.Add(uint16(strings.Index(recompileBase, "c->state = 1;")), uint8(0), []byte("c->seq = 2;\n\t"))
	f.Add(uint16(strings.Index(recompileBase, "LIMIT 4")+6), uint8(1), []byte("5"))
	f.Add(uint16(strings.Index(recompileBase, "int main")), uint8(0), []byte("int extra(int x) { return x; }\n"))
	f.Add(uint16(0), uint8(0), []byte("\n"))
	f.Fuzz(func(t *testing.T, off uint16, del uint8, ins []byte) {
		at := min(int(off), len(recompileBase))
		end := min(at+int(del), len(recompileBase))
		src := recompileBase[:at] + string(ins) + recompileBase[end:]
		r := &recompiler{}
		if r.step(t, recompileBase) == nil {
			t.Fatal("base file does not compile")
		}
		r.step(t, src)
	})
}
