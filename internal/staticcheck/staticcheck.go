// Package staticcheck is the compile-time half the paper leaves as future
// work (§7): an interprocedural model checker that decides, before the
// program ever runs, which assertions need their runtime instrumentation at
// all. It walks the IR control-flow graph from the program entry point,
// abstracts the program over the hook plan the instrumenter emits
// (automata.Plan: function entries and returns, call sites, field stores,
// bound events) plus the assertion sites, and propagates the product of
// the program state with an abstraction of the libtesla instance store.
//
// Every assertion is classified as one of:
//
//   - PROVABLY-SAFE: no reachable path can produce a violation. The
//     toolchain may elide all of the assertion's hooks (instrument.Options
//     .Elide) — the paper's overhead, deleted at compile time.
//   - PROVABLY-FAILING: every terminating execution violates the
//     assertion. This is a compile-time error in spirit: the missing-check
//     bug of the opensslcve example is caught without running the program.
//   - NEEDS-RUNTIME: neither could be proved; the assertion keeps its
//     instrumentation and libtesla decides at run time.
//
// The abstraction tracks, per control-flow point and per automaton, the
// set of DFA states the general instance (the one created by «init» with
// an empty key) may occupy (LO), a superset of the states occupied by any
// live instance including clones (HI), whether the bound is open, whether
// any event has been delivered in the current bound epoch, and whether a
// violation has already definitely occurred. Soundness dictates the
// asymmetry: SAFE verdicts are refuted from HI (any instance could be the
// one that fails) but FAILING verdicts are proved from LO (the general
// instance always exists once the bound has been touched, so if it is
// surely stuck, the whole assertion surely fails). See DESIGN.md for the
// transfer functions and the soundness caveats.
package staticcheck

import (
	"sort"

	"tesla/internal/automata"
	"tesla/internal/ir"
)

// Verdict classifies one assertion.
type Verdict int

const (
	// NeedsRuntime means the checker could not decide; keep the hooks.
	NeedsRuntime Verdict = iota
	// Safe means no reachable execution can violate the assertion.
	Safe
	// Failing means every terminating execution violates the assertion.
	Failing
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "PROVABLY-SAFE"
	case Failing:
		return "PROVABLY-FAILING"
	default:
		return "NEEDS-RUNTIME"
	}
}

// Obligation is a structured diagnostic for an undischarged liveness
// obligation: instead of a bare NEEDS-RUNTIME, the checker names the
// states that may be left pending, the events that would move them, and
// the □◇-style fairness assumption under which the assertion would hold.
// Field order is the stable JSON order consumed by `tesla-check -json`.
type Obligation struct {
	// Kind classifies the obligation: "eventually" (an instance may
	// reach bound exit without completing), "site" (the general instance
	// may reach the assertion site unable to accept it) or "budget" (the
	// analysis valve tripped before a proof).
	Kind string `json:"kind"`
	// Where is the program point the obligation was recorded at.
	Where string `json:"where,omitempty"`
	// Pending are the automaton states that may be stuck.
	Pending automata.StateSet `json:"pending,omitempty"`
	// Discharge are the event names that can move a pending state.
	Discharge []string `json:"discharge,omitempty"`
	// Fairness is the □◇ assumption over Discharge that closes the gap.
	Fairness string `json:"fairness,omitempty"`
	// Detail is the human-readable sentence rendered by tesla-check.
	Detail string `json:"detail"`
}

func (o Obligation) id() string {
	return o.Kind + "|" + o.Where + "|" + o.Fairness + "|" + o.Detail
}

// Result is the verdict for one automaton, with the reasons that support
// (or, for NEEDS-RUNTIME, that blocked) the classification.
type Result struct {
	Automaton *automata.Automaton
	Verdict   Verdict
	// Reasons are human-readable findings: for NEEDS-RUNTIME, what the
	// checker could not rule out; for FAILING, where the violation is
	// forced. Sorted and deduplicated.
	Reasons []string
	// Liveness marks verdicts decided by the liveness refinement pass
	// (value-refined product walk) rather than the plain safety pass.
	Liveness bool
	// Proof carries the refinement facts a Liveness verdict rests on
	// (pruned branches, ranked loops). Sorted and deduplicated.
	Proof []string
	// Obligations are the structured missing-fairness diagnostics for
	// NEEDS-RUNTIME verdicts (nil for decided ones). Sorted by kind,
	// location and assumption.
	Obligations []Obligation

	graph *productGraph
}

// Dot renders the explored product graph (abstract monitor configurations
// × program events) in the visual conventions of automata.Dot.
func (r *Result) Dot() string { return r.graph.dot(r.Automaton.Name) }

// Report is the verdict set for a whole program, in automaton order.
type Report struct {
	Results []*Result
}

// Counts tallies verdicts.
func (r *Report) Counts() (safe, failing, runtime int) {
	for _, res := range r.Results {
		switch res.Verdict {
		case Safe:
			safe++
		case Failing:
			failing++
		default:
			runtime++
		}
	}
	return
}

// SafeSet returns the names of PROVABLY-SAFE automata, the set handed to
// instrument.Options.Elide.
func (r *Report) SafeSet() map[string]bool {
	out := map[string]bool{}
	for _, res := range r.Results {
		if res.Verdict == Safe {
			out[res.Automaton.Name] = true
		}
	}
	return out
}

// Options configures a check.
type Options struct {
	// Entry is the program entry point; "" means main.
	Entry string
	// DefinedFns is the program's defined-function set the hook plan
	// (automata.NewPlan) is built over; pass the set the program is
	// instrumented with. Nil means the module's functions.
	DefinedFns map[string]bool
	// maxConfigs bounds distinct abstract configurations per basic block
	// before the checker gives up on an automaton (NEEDS-RUNTIME). Zero
	// means DefaultMaxConfigs; only tests lower it.
	maxConfigs int
	// NoLiveness disables the liveness refinement pass: verdicts come
	// from the safety pass alone (the pre-refinement behaviour). Used by
	// the elision benchmark to separate the safety and liveness rungs.
	NoLiveness bool
}

// DefaultMaxConfigs is the per-block configuration valve.
const DefaultMaxConfigs = 64

// Check classifies every automaton against the (uninstrumented) program
// module. The module is not mutated.
func Check(mod *ir.Module, autos []*automata.Automaton, opts Options) *Report {
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	if opts.maxConfigs <= 0 {
		opts.maxConfigs = DefaultMaxConfigs
	}
	if opts.DefinedFns == nil {
		opts.DefinedFns = map[string]bool{}
		for _, f := range mod.Funcs {
			opts.DefinedFns[f.Name] = true
		}
	}
	rep := &Report{}
	for _, a := range autos {
		rep.Results = append(rep.Results, checkOne(mod, a, opts))
	}
	return rep
}

// sortedReasons normalises a reason set for deterministic output. Every
// reason and proof line the checker emits is routed through here so the
// CLI (and its golden files) never observe map-iteration order.
func sortedReasons(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// sortObligations is sortedReasons' structured counterpart: obligations
// leave the checker ordered by kind, location, assumption and text.
func sortObligations(set map[string]Obligation) []Obligation {
	out := make([]Obligation, 0, len(set))
	for _, o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id() < out[j].id() })
	return out
}
