// Package dtrace is a miniature DTrace-style probe and aggregation
// facility. In the FreeBSD kernel, TESLA's default event handler uses
// DTrace to aggregate information across events — e.g. counting how often
// a transition is triggered per stack trace (§4.4.2). This package provides
// the aggregation substrate and a core.Handler adapter.
package dtrace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tesla/internal/core"
)

// Aggregation accumulates counts keyed by strings, like DTrace's
// @agg[key] = count().
type Aggregation struct {
	mu     sync.Mutex
	name   string
	counts map[string]uint64
}

// NewAggregation creates a named aggregation.
func NewAggregation(name string) *Aggregation {
	return &Aggregation{name: name, counts: map[string]uint64{}}
}

// Add bumps a key.
func (a *Aggregation) Add(key string, n uint64) {
	a.mu.Lock()
	a.counts[key] += n
	a.mu.Unlock()
}

// Count returns a key's tally.
func (a *Aggregation) Count(key string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counts[key]
}

// Snapshot returns a copy of the aggregation's current counts, for
// differential comparisons (the fleet store's query results are pinned
// against Summarize through it).
func (a *Aggregation) Snapshot() map[string]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]uint64, len(a.counts))
	for k, v := range a.counts {
		out[k] = v
	}
	return out
}

// Keys returns all keys, sorted by descending count then name — DTrace's
// printa ordering.
func (a *Aggregation) Keys() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]string, 0, len(a.counts))
	for k := range a.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if a.counts[keys[i]] != a.counts[keys[j]] {
			return a.counts[keys[i]] > a.counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// StackFunc supplies the current stack trace for aggregation keys.
type StackFunc func() string

// Handler is the kernel default TESLA handler: it aggregates automaton
// transitions, acceptances and violations per (class, edge, stack trace),
// instead of printing to stderr as the userspace default does.
type Handler struct {
	core.NopHandler

	Transitions *Aggregation
	Accepts     *Aggregation
	Failures    *Aggregation
	// Stack, if set, contributes a stack-trace component to keys.
	Stack StackFunc
}

// NewHandler creates an aggregating handler.
func NewHandler(stack StackFunc) *Handler {
	return &Handler{
		Transitions: NewAggregation("tesla-transitions"),
		Accepts:     NewAggregation("tesla-accepts"),
		Failures:    NewAggregation("tesla-failures"),
		Stack:       stack,
	}
}

// Key joins aggregation key components in the canonical dtrace spelling.
// It is exported so other aggregators (the fleet store) can emit keys that
// compare byte-for-byte with a Handler's.
func Key(parts ...string) string { return strings.Join(parts, " @ ") }

func (h *Handler) key(parts ...string) string {
	if h.Stack != nil {
		parts = append(parts, h.Stack())
	}
	return Key(parts...)
}

// Transition aggregates per-edge counts (the data behind fig. 9's weights).
func (h *Handler) Transition(cls *core.Class, inst *core.Instance, from, to uint32, symbol string) {
	h.Transitions.Add(h.key(cls.Name, fmt.Sprintf("%d->%d", from, to), symbol), 1)
}

// Accept aggregates automaton acceptances.
func (h *Handler) Accept(cls *core.Class, inst *core.Instance) {
	h.Accepts.Add(h.key(cls.Name), 1)
}

// Fail aggregates violations.
func (h *Handler) Fail(v *core.Violation) {
	h.Failures.Add(h.key(v.Class.Name, v.Kind.String()), 1)
}
