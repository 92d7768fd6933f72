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
// program events driven by name through monitor.Thread (the monitor's
// reading of the same hook plan), and the static checker's verdict. The
// two runs must report the same violations and the same per-class accept
// counts; FAILING must mean the assertion violates, SAFE that it does not.
// Every program runs with and without the lazy-initialisation
// optimisation.
//
// The programs cover every bound shape {call, returnfrom} × {call,
// returnfrom}, with the assertion's events on the bound functions
// themselves — where the relative order of a bound hook and an event hook
// at one program point decides the verdict. The bound either spans two
// functions (start … fin, site in between) or begins and ends on one
// function (tick, site between two calls to it). Each bound carries one
// assertion, or two that share it: compiled code then calls the shared
// bound slot once per automaton, while the name-driven monitor fires it
// once per program point.
func TestHookOrderAgrees(t *testing.T) {
	kinds := []string{"call", "returnfrom"}
	shapes := []struct {
		name       string
		begin, end string   // bound functions
		calls      []string // main's call sequence; work holds the sites
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
				assertion := func(ev string) string {
					return fmt.Sprintf("TESLA_ASSERT(perthread, %s(%s), %s(%s), %s)", bk, sh.begin, ek, sh.end, ev)
				}
				for i, ev := range events {
					shared := events[(i+1)%len(events)]
					t.Run(sh.name+"/"+bk+"-"+ek+"/"+ev, func(t *testing.T) {
						for _, naive := range []bool{false, true} {
							t.Run(fmt.Sprintf("naive=%v", naive), func(t *testing.T) {
								checkHookOrder(t, []string{assertion(ev)}, sh.calls, naive)
							})
							t.Run(fmt.Sprintf("shared=%s/naive=%v", shared, naive), func(t *testing.T) {
								checkHookOrder(t, []string{assertion(ev), assertion(shared)}, sh.calls, naive)
							})
						}
					})
				}
			}
		}
	}
}

func checkHookOrder(t *testing.T, assertions []string, calls []string, naive bool) {
	src := "int start(int x) { return 0; }\n" +
		"int fin(int x) { return 0; }\n" +
		"int tick(int x) { return 0; }\n" +
		"int work(int x) {\n"
	for _, a := range assertions {
		src += "\t" + a + ";\n"
	}
	src += "\treturn 0;\n}\nint main(int x) {\n"
	for i, fn := range calls {
		src += fmt.Sprintf("\tint r%d = %s(1);\n", i, fn)
	}
	src += "\treturn 0;\n}\n"

	b, err := BuildProgramOpts(map[string]string{"order.c": src}, BuildOptions{Instrument: true, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Autos) != len(assertions) {
		t.Fatalf("automata = %d, want %d", len(b.Autos), len(assertions))
	}

	hv := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: hv, Naive: naive}, 0); err != nil {
		t.Fatal(err)
	}

	hm := core.NewCountingHandler()
	m, err := monitor.New(monitor.Options{Handler: hm, Naive: naive}, b.Autos...)
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
			// The automata are in source order, as work's sites run.
			for _, a := range b.Autos {
				must(th.Site(a.Name))
			}
		}
		must(th.Return(fn, 0, 1))
	}
	must(th.Return("main", 0, 0))

	if vm, byName := signatures(hv), signatures(hm); !reflect.DeepEqual(vm, byName) {
		t.Fatalf("VM run violations %v, name-driven monitor %v", vm, byName)
	}
	for i, a := range b.Autos {
		if vm, byName := hv.Accepts(a.Name), hm.Accepts(a.Name); vm != byName {
			t.Errorf("%s: VM run accepted %d instances, name-driven monitor %d", a.Name, vm, byName)
		}
		violated := false
		for _, v := range hm.Violations() {
			violated = violated || v.Class.Name == a.Name
		}
		switch verdict := b.Report.Results[i].Verdict; verdict {
		case staticcheck.Safe:
			if violated {
				t.Fatalf("%s: checker says %s, runtime reports %v", a.Name, verdict, signatures(hm))
			}
		case staticcheck.Failing:
			if !violated {
				t.Fatalf("%s: checker says %s, runtime reports no violation", a.Name, verdict)
			}
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
