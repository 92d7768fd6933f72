package toolchain

import (
	"fmt"
	"reflect"
	"testing"

	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/staticcheck"
)

// TestHookOrderAgrees runs one program three ways and demands one answer:
// built and executed on the VM (the instrumenter's hooks), the same
// program events driven by name through monitor.Thread (the monitor's own
// dispatch order), and the static checker's verdict. FAILING must mean the
// run violates, SAFE that it does not.
//
// The programs cover every bound shape {call, returnfrom} × {call,
// returnfrom}, with the assertion's events on the bound functions
// themselves — where the relative order of a bound hook and an event hook
// at one program point decides the verdict. The bound either spans two
// functions (start … fin, site in between) or begins and ends on one
// function (tick, site between two calls to it).
func TestHookOrderAgrees(t *testing.T) {
	kinds := []string{"call", "returnfrom"}
	shapes := []struct {
		name       string
		begin, end string   // bound functions
		calls      []string // main's call sequence; work holds the site
	}{
		{"span", "start", "fin", []string{"start", "work", "fin"}},
		{"same", "tick", "tick", []string{"tick", "work", "tick"}},
	}
	for _, sh := range shapes {
		events := []string{
			"eventually(call(" + sh.end + "))",
			"eventually(returnfrom(" + sh.end + "))",
			"previously(call(" + sh.begin + "))",
			"previously(returnfrom(" + sh.begin + "))",
		}
		for _, bk := range kinds {
			for _, ek := range kinds {
				for _, ev := range events {
					assertion := fmt.Sprintf("TESLA_ASSERT(perthread, %s(%s), %s(%s), %s)",
						bk, sh.begin, ek, sh.end, ev)
					t.Run(sh.name+"/"+bk+"-"+ek+"/"+ev, func(t *testing.T) {
						checkHookOrder(t, assertion, sh.calls)
					})
				}
			}
		}
	}
}

func checkHookOrder(t *testing.T, assertion string, calls []string) {
	src := "int start(int x) { return 0; }\n" +
		"int fin(int x) { return 0; }\n" +
		"int tick(int x) { return 0; }\n" +
		"int work(int x) {\n\t" + assertion + ";\n\treturn 0;\n}\n" +
		"int main(int x) {\n"
	for i, fn := range calls {
		src += fmt.Sprintf("\tint r%d = %s(1);\n", i, fn)
	}
	src += "\treturn 0;\n}\n"

	b, err := BuildProgramOpts(map[string]string{"order.c": src}, BuildOptions{Instrument: true, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Autos) != 1 {
		t.Fatalf("automata = %d", len(b.Autos))
	}

	hv := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: hv}, 0); err != nil {
		t.Fatal(err)
	}
	vmViolations := signatures(hv)

	hm := core.NewCountingHandler()
	m, err := monitor.New(monitor.Options{Handler: hm}, b.Autos...)
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(th.Call("main", 0))
	for _, fn := range calls {
		must(th.Call(fn, 1))
		if fn == "work" {
			must(th.Site(b.Autos[0].Name))
		}
		must(th.Return(fn, 0, 1))
	}
	must(th.Return("main", 0, 0))
	byName := signatures(hm)

	if !reflect.DeepEqual(vmViolations, byName) {
		t.Fatalf("VM run violations %v, name-driven monitor %v", vmViolations, byName)
	}
	switch verdict := b.Report.Results[0].Verdict; verdict {
	case staticcheck.Safe:
		if len(byName) > 0 {
			t.Fatalf("checker says %s, runtime reports %v", verdict, byName)
		}
	case staticcheck.Failing:
		if len(byName) == 0 {
			t.Fatalf("checker says %s, runtime reports no violation", verdict)
		}
	}
}

func signatures(h *core.CountingHandler) []string {
	var out []string
	for _, v := range h.Violations() {
		out = append(out, v.Signature())
	}
	return out
}
