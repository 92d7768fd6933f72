// Package trace is TESLA's structured event-tracing subsystem. It records
// every automaton lifecycle event (§4.4.1: «init», clone, update, error,
// «cleanup») together with the raw program events that caused them, in
// per-thread bounded ring buffers, and merges them into one totally-ordered
// trace. Saved traces can be replayed offline through the compiled automata
// — without re-running the VM or the monitored system — reproducing the
// live run's verdicts, and a violating trace can be delta-debugged down to
// a minimal counterexample (TeSSLa-style offline stream analysis grafted
// onto TESLA's instrumentation).
package trace

import (
	"fmt"
	"strings"

	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

// Version is the trace-file format version written by this package. Readers
// reject files with any other version.
const Version = 1

// Kind classifies trace events. KindProgram events are the replayable raw
// inputs; the rest are automaton lifecycle events derived from them, kept so
// reports can show the path an automaton took without replaying.
type Kind uint8

const (
	// KindProgram is a raw program event as it entered a monitor thread.
	KindProgram Kind = iota
	// KindInit is an instance creation («init» transition).
	KindInit
	// KindClone is an instance specialising its key (the fork of fig. 4).
	KindClone
	// KindTransition is one instance state change.
	KindTransition
	// KindAccept is an instance finalising in an accepting state.
	KindAccept
	// KindFail is a detected violation.
	KindFail
	// KindOverflow is an instance-table overflow.
	KindOverflow
	// KindEvict is a live instance sacrificed by the EvictOldest overflow
	// policy.
	KindEvict
	// KindQuarantine is a class entering (On) or leaving (!On) quarantine
	// under the QuarantineClass overflow policy.
	KindQuarantine
)

func (k Kind) String() string {
	switch k {
	case KindProgram:
		return "program"
	case KindInit:
		return "init"
	case KindClone:
		return "clone"
	case KindTransition:
		return "transition"
	case KindAccept:
		return "accept"
	case KindFail:
		return "fail"
	case KindOverflow:
		return "overflow"
	case KindEvict:
		return "evict"
	case KindQuarantine:
		return "quarantine"
	default:
		return "Kind(?)"
	}
}

// Event is one trace record. It is self-contained: slice fields are owned
// by the event, not borrowed. Which fields are meaningful depends on Kind
// (and, for KindProgram, on Prog) — unused fields stay zero and are elided
// from JSON.
type Event struct {
	// Seq is the event's position in the global order. Sequence numbers
	// are allocated from one atomic counter across all threads, each
	// under the lock of the ring the event is recorded in, so Seq order
	// is the order in which events entered their rings: a linearisation
	// of the run that every ring, and every cut, agrees with.
	Seq uint64 `json:"seq"`
	// Thread is the monitor thread the event entered on, or -1 for
	// lifecycle events (which are recorded store-side, where the thread
	// is unknown for the shared global context).
	Thread int  `json:"thread"`
	Kind   Kind `json:"kind"`
	// Time is the thread's clock at the event (VM steps when attached to
	// a VM; 0 when no clock is installed).
	Time int64 `json:"time,omitempty"`

	// Program-event payload (KindProgram).
	Prog    monitor.ProgKind `json:"prog,omitempty"`
	Fn      string           `json:"fn,omitempty"`
	Field   string           `json:"field,omitempty"`
	Op      spec.AssignOp    `json:"op,omitempty"`
	Auto    int              `json:"auto,omitempty"`
	Sym     int              `json:"sym,omitempty"`
	Slot    int              `json:"slot,omitempty"`
	Ret     core.Value       `json:"ret,omitempty"`
	HasRet  bool             `json:"hasRet,omitempty"`
	Vals    []core.Value     `json:"vals,omitempty"`
	InStack []int            `json:"inStack,omitempty"`

	// Lifecycle payload (all other kinds).
	Class string `json:"class,omitempty"`
	// Key is the instance binding: the new instance's key for init/clone,
	// the instance key for transition/accept/fail, the event key for
	// overflow.
	Key core.Key `json:"key,omitempty"`
	// ParentKey is the cloned-from instance's key (KindClone only).
	ParentKey core.Key         `json:"parentKey,omitempty"`
	From      uint32           `json:"from,omitempty"`
	To        uint32           `json:"to,omitempty"`
	State     uint32           `json:"state,omitempty"`
	Symbol    string           `json:"symbol,omitempty"`
	Verdict   core.VerdictKind `json:"verdict,omitempty"`
	// On distinguishes quarantine entry (true) from re-arm (false) for
	// KindQuarantine.
	On bool `json:"on,omitempty"`
}

// IsProgram reports whether the event is a replayable raw program event.
func (e *Event) IsProgram() bool { return e.Kind == KindProgram }

// String renders the event for timelines and reports.
func (e *Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d t%d %s", e.Seq, e.Thread, e.Kind)
	switch e.Kind {
	case KindProgram:
		fmt.Fprintf(&b, "/%s", e.Prog)
		switch e.Prog {
		case monitor.ProgCall, monitor.ProgSend:
			fmt.Fprintf(&b, " %s%v", e.Fn, e.Vals)
		case monitor.ProgReturn, monitor.ProgSendReturn:
			fmt.Fprintf(&b, " %s%v = %d", e.Fn, e.Vals, e.Ret)
		case monitor.ProgAssign:
			fmt.Fprintf(&b, " %s.%s %s %v", e.Fn, e.Field, e.Op, e.Vals)
		case monitor.ProgSite:
			fmt.Fprintf(&b, " %s%v", e.Fn, e.Vals)
			if len(e.InStack) > 0 {
				fmt.Fprintf(&b, " instack=%v", e.InStack)
			}
		case monitor.ProgBoundBegin, monitor.ProgBoundEnd:
			fmt.Fprintf(&b, " slot=%d", e.Slot)
		case monitor.ProgDeliver:
			fmt.Fprintf(&b, " auto=%d sym=%d %v", e.Auto, e.Sym, e.Vals)
		}
	case KindInit:
		fmt.Fprintf(&b, " %s %s state=%d", e.Class, e.Key, e.State)
	case KindClone:
		fmt.Fprintf(&b, " %s %s -> %s state=%d", e.Class, e.ParentKey, e.Key, e.State)
	case KindTransition:
		fmt.Fprintf(&b, " %s %s %d->%d on %q", e.Class, e.Key, e.From, e.To, e.Symbol)
	case KindAccept:
		fmt.Fprintf(&b, " %s %s", e.Class, e.Key)
	case KindFail:
		fmt.Fprintf(&b, " %s %s key=%s state=%d sym=%q", e.Class, e.Verdict, e.Key, e.State, e.Symbol)
	case KindOverflow:
		fmt.Fprintf(&b, " %s %s", e.Class, e.Key)
	case KindEvict:
		fmt.Fprintf(&b, " %s %s state=%d", e.Class, e.Key, e.State)
	case KindQuarantine:
		if e.On {
			fmt.Fprintf(&b, " %s enter", e.Class)
		} else {
			fmt.Fprintf(&b, " %s re-arm", e.Class)
		}
	}
	return b.String()
}

// Trace is a complete recorded run: the merged, Seq-ordered event stream
// plus the identity of the automata that produced it.
type Trace struct {
	// FormatVersion is the file-format version (== Version for traces
	// produced by this package).
	FormatVersion int `json:"version"`
	// Automata are the compiled automata names in monitor index order.
	// Replay refuses a trace whose names differ from the automata it is
	// given — Auto indices in events are only meaningful against the
	// same set.
	Automata []string `json:"automata"`
	// Dropped counts events lost to ring-buffer overflow across all
	// threads. A trace with Dropped > 0 may not replay to the same
	// verdicts.
	Dropped uint64 `json:"dropped,omitempty"`
	// Events is the merged stream, ascending by Seq.
	Events []Event `json:"events"`
}

// Programs returns the replayable subset of the trace's events, in order.
func (t *Trace) Programs() []Event {
	out := make([]Event, 0, len(t.Events))
	for _, e := range t.Events {
		if e.IsProgram() {
			out = append(out, e)
		}
	}
	return out
}

// Violations returns the trace's recorded violation events, in order.
func (t *Trace) Violations() []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Kind == KindFail {
			out = append(out, e)
		}
	}
	return out
}
