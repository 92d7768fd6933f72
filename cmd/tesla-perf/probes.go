package main

import (
	"sync"

	"tesla/internal/monitor"
)

// countingTap is a monitor.Tap that only counts program events: the
// traced runs use it for monitor.events_per_op. Each thread gets its own
// counter, so counting takes no lock.
type countingTap struct {
	mu    sync.Mutex
	sinks []*countingSink
}

type countingSink struct {
	n int64
	_ [56]byte // keep neighbouring threads' counters off one cache line
}

func (t *countingTap) ThreadTap(int) monitor.ThreadTap {
	s := &countingSink{}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
	return s
}

func (s *countingSink) ProgramEvent(monitor.ProgramEvent) { s.n++ }

// total reads the counters; call it once the counted threads have stopped.
func (t *countingTap) total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, s := range t.sinks {
		n += s.n
	}
	return n
}

// healthSum totals Monitor.Health over monitors and classes.
type healthSum struct {
	live                             int
	violations, overflows, evictions uint64
}

func (h *healthSum) add(mons ...*monitor.Monitor) {
	for _, m := range mons {
		for _, ch := range m.Health() {
			h.live += ch.Live
			h.violations += ch.Violations
			h.overflows += ch.Overflows
			h.evictions += ch.Evictions
		}
	}
}

// layers reports the totals as the core.* per-layer metrics.
func (h healthSum) layers(m map[string]float64) {
	m["core.live_instances"] = float64(h.live)
	m["core.violations"] = float64(h.violations)
	m["core.overflows"] = float64(h.overflows)
	m["core.evictions"] = float64(h.evictions)
}
