package trace

import (
	"fmt"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
)

// The shrinker reduces a violating trace to a minimal counterexample with
// ddmin (Zeller & Hildebrandt's delta debugging): it searches subsets and
// complements of the program-event sequence at doubling granularity,
// keeping any candidate that still fails "the same way" — a violation with
// the same class and verdict kind as the original. The result is
// 1-minimal: removing any single remaining event loses the violation.

// ShrinkResult is a minimised counterexample.
type ShrinkResult struct {
	// Trace is the re-recorded minimal trace (fresh sequence numbers and
	// the lifecycle events the minimal run causes), a valid trace file of
	// its own.
	Trace *Trace
	// Target is the preserved violation signature (class/kind).
	Target string
	// Kept and Removed count program events in and out of the result.
	Kept, Removed int
}

// Shrink delta-debugs the trace against the given automata. The trace must
// replay to at least one violation; its first violation's signature is the
// one preserved. Like Replay, Shrink assumes default supervision policies;
// use ShrinkOpts when the violation only manifests under the live run's
// overflow policy.
func Shrink(t *Trace, autos []*automata.Automaton) (*ShrinkResult, error) {
	return ShrinkOpts(t, autos, monitor.Options{})
}

// ShrinkOpts is Shrink under explicit monitor options: every replay of a
// candidate subset — and the final re-recording — runs under the same
// supervision policy, so policy-dependent violations (an instance evicted
// under overflow pressure, a quarantined class) shrink like any other.
func ShrinkOpts(t *Trace, autos []*automata.Automaton, opts monitor.Options) (*ShrinkResult, error) {
	if err := Check(t, autos); err != nil {
		return nil, err
	}
	progs := t.Programs()
	base, err := ReplayOpts(t, autos, opts)
	if err != nil {
		return nil, err
	}
	if len(base.Violations) == 0 {
		return nil, fmt.Errorf("trace: nothing to shrink: replay produces no violation")
	}
	target := base.Violations[0].Signature()

	test := func(events []Event) bool { return violates(events, autos, target, opts) }
	minimal := ddmin(progs, test)

	shrunk, err := RerecordOpts(minimal, autos, opts)
	if err != nil {
		return nil, err
	}
	return &ShrinkResult{
		Trace:   shrunk,
		Target:  target,
		Kept:    len(minimal),
		Removed: len(progs) - len(minimal),
	}, nil
}

// violates replays a candidate event sequence and reports whether any
// violation with the target signature occurs. Candidates that fail to
// replay at all (structurally broken subsets) simply don't violate.
func violates(events []Event, autos []*automata.Automaton, target string, opts monitor.Options) bool {
	counting := core.NewCountingHandler()
	opts.Handler = counting
	m, err := monitor.New(opts, autos...)
	if err != nil {
		return false
	}
	sub := &Trace{FormatVersion: Version, Automata: namesOf(autos), Events: events}
	if err := Feed(sub, m); err != nil {
		return false
	}
	for _, v := range counting.Violations() {
		if v.Signature() == target {
			return true
		}
	}
	return false
}

// ddmin is the classic delta-debugging minimisation loop over an event
// sequence: try subsets, then complements, doubling granularity when
// neither reduces. test must hold for the full input; the result is
// 1-minimal with respect to test.
func ddmin(events []Event, test func([]Event) bool) []Event {
	cur := events
	n := 2
	for len(cur) >= 2 {
		chunk := (len(cur) + n - 1) / n
		reduced := false

		for i := 0; i < len(cur) && !reduced; i += chunk {
			sub := cur[i:min(i+chunk, len(cur))]
			if len(sub) < len(cur) && test(sub) {
				cur = append([]Event(nil), sub...)
				n = 2
				reduced = true
			}
		}
		if !reduced {
			for i := 0; i < len(cur) && !reduced; i += chunk {
				comp := make([]Event, 0, len(cur)-chunk)
				comp = append(comp, cur[:i]...)
				comp = append(comp, cur[min(i+chunk, len(cur)):]...)
				if len(comp) < len(cur) && test(comp) {
					cur = comp
					n = max(n-1, 2)
					reduced = true
				}
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n = min(2*n, len(cur))
		}
	}
	return cur
}
