// Package analyse is the static half the paper proposes as future work
// (§7: "a further advantage would be compile-time reporting of potential
// failures"). Assertion extraction — the paper's analyser (§4.1) — happens
// in the compiler, which parses each TESLA assertion with the same scoping
// and type information as the code around it; the build graph turns the
// results into per-file .tesla manifest fragments and the combined program
// manifest. The lint here reads that build: the units' IR and the combined
// manifest, whether the build parsed its sources or served them from cache.
package analyse

import (
	"fmt"
	"sort"
	"strings"

	"tesla/internal/build"
	"tesla/internal/ir"
	"tesla/internal/spec"
	"tesla/internal/staticcheck"
)

// Warning is one static finding.
type Warning struct {
	Assertion string
	Message   string
}

func (w Warning) String() string {
	return fmt.Sprintf("%s: %s", w.Assertion, w.Message)
}

// Lint reports, without running anything, assertions whose events cannot
// occur in the built program: a bound or event function that is neither
// defined nor directly called anywhere means the automaton can never
// initialise (the assertion is dead) or, for an `eventually` obligation,
// that every run reaching the site is already guaranteed to fail. When the
// build ran the static checker (res.Report), its verdicts sharpen the lint:
// a PROVABLY-FAILING assertion becomes a warning even when every event
// function exists, and a NEEDS-RUNTIME assertion with undischarged liveness
// obligations surfaces the missing □◇ fairness assumptions.
func Lint(res *build.Result) ([]Warning, error) {
	known := map[string]bool{}
	structs := map[string]*ir.StructType{}
	for _, u := range res.Units {
		for _, st := range u.Module.Structs {
			structs[st.Name] = st
		}
		for _, fn := range u.Module.Funcs {
			known[fn.Name] = true
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpCall {
						known[in.Sym] = true
					}
				}
			}
		}
	}
	assertions, err := res.Manifest.Parse()
	if err != nil {
		return nil, err
	}

	var out []Warning
	warn := func(a, format string, args ...interface{}) {
		out = append(out, Warning{Assertion: a, Message: fmt.Sprintf(format, args...)})
	}
	for _, a := range assertions {
		seen := map[string]bool{}
		for _, fn := range []string{a.Bound.Begin.Fn, a.Bound.End.Fn} {
			if !known[fn] && !seen[fn] {
				seen[fn] = true
				warn(a.Name, "bound function %q is never defined or called: the automaton can never initialise", fn)
			}
		}
		spec.Walk(a.Expr, func(e spec.Expr) {
			switch ev := e.(type) {
			case *spec.FunctionEvent:
				if ev.ObjC || known[ev.Fn] || seen[ev.Fn] {
					return
				}
				seen[ev.Fn] = true
				warn(a.Name, "event function %q is never defined or called: the event cannot occur", ev.Fn)
			case *spec.InCallStack:
				if !known[ev.Fn] && !seen[ev.Fn] {
					seen[ev.Fn] = true
					warn(a.Name, "incallstack function %q is never defined or called", ev.Fn)
				}
			case *spec.FieldAssignEvent:
				// An unresolvable struct or field means the instrumenter
				// can never match a store to this event.
				if ev.Struct == "" {
					return
				}
				key := ev.Struct + "." + ev.Field
				if seen[key] {
					return
				}
				st, ok := structs[ev.Struct]
				switch {
				case !ok:
					seen[key] = true
					warn(a.Name, "field event names struct %q, which is not defined: the event cannot occur", ev.Struct)
				case st.FieldIndex(ev.Field) < 0:
					seen[key] = true
					warn(a.Name, "field event names %s.%s, but struct %q has no field %q: the event cannot occur",
						ev.Struct, ev.Field, ev.Struct, ev.Field)
				}
			}
		})
	}

	if res.Report != nil {
		for _, r := range res.Report.Results {
			switch r.Verdict {
			case staticcheck.Failing:
				warn(r.Automaton.Name, "assertion is provably failing: %s", strings.Join(r.Reasons, "; "))
			case staticcheck.NeedsRuntime:
				for _, o := range r.Obligations {
					if o.Fairness != "" {
						warn(r.Automaton.Name, "%s obligation not provable: assume %s (%s)", o.Kind, o.Fairness, o.Detail)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Assertion != out[j].Assertion {
			return out[i].Assertion < out[j].Assertion
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}
