package trace

import (
	"fmt"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
)

// The replayer feeds a saved trace back through freshly-compiled automata,
// without the VM or the monitored system. Every replayable decision made
// during the live run is in the trace: site events carry their resolved
// incallstack branches, and instrumented (VM) runs deliver pre-matched
// events, so no memory or call stack is needed. For a single-threaded run
// the trace's Seq order is the exact live order and replay reproduces the
// live verdicts event for event; for concurrent global-context runs the
// order is one plausible linearisation of what the store observed.

// Result summarises a replay's verdicts per automaton class.
type Result struct {
	// Accepts counts accepted instances per class.
	Accepts map[string]uint64
	// Violations are the detected violations, in replay order.
	Violations []*core.Violation
}

// Signatures returns the violations' class/kind signatures, in order.
func (r *Result) Signatures() []string {
	out := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		out[i] = v.Signature()
	}
	return out
}

// Check verifies that the trace was recorded against these automata: same
// names, same order. Auto indices inside events are meaningless otherwise.
func Check(t *Trace, autos []*automata.Automaton) error {
	if len(t.Automata) != len(autos) {
		return fmt.Errorf("trace: recorded against %d automata, replaying with %d", len(t.Automata), len(autos))
	}
	for i, name := range t.Automata {
		if autos[i].Name != name {
			return fmt.Errorf("trace: automaton %d is %q in trace but %q here", i, name, autos[i].Name)
		}
	}
	return nil
}

// Replay runs the trace's program events through a fresh monitor over the
// given automata and returns the verdicts. The monitor runs without
// fail-fast regardless of how the live run was configured: a fail-fast
// trace is simply a prefix, and replaying it non-fatally still reproduces
// the violations it recorded.
//
// Replay uses default supervision policies; a run recorded under a
// different overflow policy can degrade differently (an evicted instance
// survives a drop-new replay, say) and produce a different verdict. Use
// ReplayOpts with the live run's policy options to reproduce those.
func Replay(t *Trace, autos []*automata.Automaton) (*Result, error) {
	return ReplayOpts(t, autos, monitor.Options{})
}

// ReplayOpts is Replay with explicit monitor options — the supervision
// fields (Overflow, QuarantineAfter, RearmEvents, Failure) matter when the
// recorded run degraded under a non-default policy. The Handler field is
// overridden: replay owns verdict collection.
func ReplayOpts(t *Trace, autos []*automata.Automaton, opts monitor.Options) (*Result, error) {
	counting := core.NewCountingHandler()
	opts.Handler = counting
	// Replay is the reference path: it must reproduce live verdicts exactly
	// whether the live run batched or not, so the replay monitor never
	// batches — a caller's BatchSize (tesla-run flags forwarded wholesale)
	// must not leak in.
	opts.BatchSize = 0
	m, err := monitor.New(opts, autos...)
	if err != nil {
		return nil, err
	}
	if err := Feed(t, m); err != nil {
		return nil, err
	}
	res := &Result{Accepts: map[string]uint64{}, Violations: counting.Violations()}
	for _, a := range autos {
		if n := counting.Accepts(a.Name); n > 0 {
			res.Accepts[a.Name] = n
		}
	}
	return res, nil
}

// Feed drives the trace's program events through threads of m, creating
// one monitor thread per distinct recorded thread ID (in first-appearance
// order). Lifecycle events in the trace are skipped: dispatch regenerates
// them. Replayed threads get a clock that reads the recorded event times,
// so a re-recorded trace keeps its timestamps.
func Feed(t *Trace, m *monitor.Monitor) error {
	if err := Check(t, m.Automata()); err != nil {
		return err
	}
	threads := map[int]*monitor.Thread{}
	var now int64
	clock := func() int64 { return now }
	for i := range t.Events {
		ev := &t.Events[i]
		if !ev.IsProgram() {
			continue
		}
		th, ok := threads[ev.Thread]
		if !ok {
			th = m.NewThread()
			th.SetClock(clock)
			threads[ev.Thread] = th
		}
		now = ev.Time
		if err := dispatch(th, ev); err != nil {
			// Violations only surface as errors under fail-fast, which
			// Replay does not enable; anything here is structural (an
			// event that cannot be dispatched at all).
			return fmt.Errorf("trace: event #%d (%s): %w", ev.Seq, ev, err)
		}
	}
	// Defensive drain for caller-built monitors that do batch (Replay's own
	// monitors never do): the final verdicts must reflect every fed event.
	m.Drain()
	return nil
}

// dispatch feeds one recorded program event into the thread entry point it
// was captured from.
func dispatch(th *monitor.Thread, ev *Event) error {
	switch ev.Prog {
	case monitor.ProgCall:
		return th.Call(ev.Fn, ev.Vals...)
	case monitor.ProgReturn:
		return th.Return(ev.Fn, ev.Ret, ev.Vals...)
	case monitor.ProgSend:
		if len(ev.Vals) == 0 {
			return fmt.Errorf("send event without receiver")
		}
		return th.Send(ev.Fn, ev.Vals[0], ev.Vals[1:]...)
	case monitor.ProgSendReturn:
		if len(ev.Vals) == 0 {
			return fmt.Errorf("send-return event without receiver")
		}
		return th.SendReturn(ev.Fn, ev.Ret, ev.Vals[0], ev.Vals[1:]...)
	case monitor.ProgAssign:
		if len(ev.Vals) != 2 {
			return fmt.Errorf("assign event with %d values, want 2", len(ev.Vals))
		}
		return th.Assign(ev.Fn, ev.Field, ev.Vals[0], ev.Op, ev.Vals[1])
	case monitor.ProgSite:
		return th.SiteResolved(ev.Auto, ev.InStack, ev.Vals...)
	case monitor.ProgBoundBegin:
		return th.BoundBegin(ev.Slot)
	case monitor.ProgBoundEnd:
		return th.BoundEnd(ev.Slot)
	case monitor.ProgDeliver:
		return th.Deliver(ev.Auto, ev.Sym, ev.Vals...)
	default:
		return fmt.Errorf("unknown program event kind %d", ev.Prog)
	}
}

// Rerecord replays the given program events through a fresh monitor with a
// recorder attached, producing a self-consistent trace: fresh sequence
// numbers and the lifecycle events this exact event sequence causes. The
// shrinker uses it so a minimised trace is a valid trace file in its own
// right, not a hole-ridden subset. Thread IDs are renumbered in
// first-appearance order.
func Rerecord(events []Event, autos []*automata.Automaton) (*Trace, error) {
	return RerecordOpts(events, autos, monitor.Options{})
}

// RerecordOpts is Rerecord under explicit monitor options, so a trace
// shrunk under a non-default supervision policy re-records the lifecycle
// events (evictions, quarantines) that policy causes.
func RerecordOpts(events []Event, autos []*automata.Automaton, opts monitor.Options) (*Trace, error) {
	rec := NewRecorder(autos, 0)
	opts.Handler = rec
	opts.Tap = rec
	// As in ReplayOpts: re-recording is a reference-path replay.
	opts.BatchSize = 0
	m, err := monitor.New(opts, autos...)
	if err != nil {
		return nil, err
	}
	sub := &Trace{FormatVersion: Version, Automata: namesOf(autos), Events: events}
	if err := Feed(sub, m); err != nil {
		return nil, err
	}
	return rec.Snapshot(), nil
}

func namesOf(autos []*automata.Automaton) []string {
	names := make([]string, len(autos))
	for i, a := range autos {
		names[i] = a.Name
	}
	return names
}
