package agg

import (
	"fmt"
	"sort"

	"tesla/internal/trace"
)

// Query results. Every slice is sorted (count descending, then name
// ascending — dtrace's printa ordering) and every struct marshals with a
// fixed field order, so query output is byte-stable for a given fleet
// state: scripts can diff it, and the examples pin it with goldens.

// FleetSummary is the top-level fleet report.
type FleetSummary struct {
	Producers      []ProducerStat `json:"producers"`
	TotalFrames    uint64         `json:"totalFrames"`
	TotalEvents    uint64         `json:"totalEvents"`
	DroppedFrames  uint64         `json:"droppedFrames"`
	DroppedEvents  uint64         `json:"droppedEvents"`
	RingDropped    uint64         `json:"ringDropped"`
	ClientDropped  uint64         `json:"clientDropped"`
	Classes        []ClassStat    `json:"classes"`
	FailureSites   int            `json:"failureSites"`
	TotalFailures  uint64         `json:"totalFailures"`
	CleanProducers int            `json:"cleanProducers"`
	Disconnected   int            `json:"disconnected"`
}

// ProducerStat is one producer's accounting.
type ProducerStat struct {
	Process       string `json:"process"`
	Tool          string `json:"tool,omitempty"`
	Connected     bool   `json:"connected"`
	Clean         bool   `json:"clean"`
	Disconnects   int    `json:"disconnects,omitempty"`
	Frames        uint64 `json:"frames"`
	Events        uint64 `json:"events"`
	DroppedFrames uint64 `json:"droppedFrames"`
	DroppedEvents uint64 `json:"droppedEvents"`
	RingDropped   uint64 `json:"ringDropped"`
	BadFrames     uint64 `json:"badFrames,omitempty"`
	// DupFrames/DupEvents count deduplicated resends: frames a
	// recovering producer sent again that the server had already applied.
	// They are evidence of exactly-once at work, not double-counting —
	// Frames/Events exclude them.
	DupFrames     uint64 `json:"dupFrames,omitempty"`
	DupEvents     uint64 `json:"dupEvents,omitempty"`
	SentFrames    uint64 `json:"sentFrames,omitempty"`
	SentEvents    uint64 `json:"sentEvents,omitempty"`
	ClientDropped uint64 `json:"clientDropped,omitempty"`
}

// ClassStat is one automaton class's fleet-wide verdict counts.
type ClassStat struct {
	Class       string `json:"class"`
	Transitions uint64 `json:"transitions"`
	Accepts     uint64 `json:"accepts"`
	Failures    uint64 `json:"failures"`
}

// FailureSite answers "which assertion failed where, fleet-wide": one
// (class, verdict, symbol) site with its total and per-process split.
type FailureSite struct {
	Class      string      `json:"class"`
	Verdict    string      `json:"verdict"`
	Symbol     string      `json:"symbol,omitempty"`
	Total      uint64      `json:"total"`
	PerProcess []ProcCount `json:"perProcess"`
}

// ProcCount is one process's share of a site.
type ProcCount struct {
	Process string `json:"process"`
	Count   uint64 `json:"count"`
}

// SiteCount is one entry of a per-class top-K site ranking.
type SiteCount struct {
	Site  string `json:"site"`
	Count uint64 `json:"count"`
}

// FleetHealth is one class's health counters summed across the fleet.
type FleetHealth struct {
	Class         string `json:"class"`
	Quarantined   int    `json:"quarantined"` // processes currently quarantining the class
	Live          int    `json:"live"`
	Violations    uint64 `json:"violations"`
	Overflows     uint64 `json:"overflows"`
	Evictions     uint64 `json:"evictions"`
	Suppressed    uint64 `json:"suppressed"`
	Quarantines   uint64 `json:"quarantines"`
	HandlerPanics uint64 `json:"handlerPanics"`
}

// forEachSite runs fn over every aggregated cell, each producer's under
// that producer's lock.
func (s *Store) forEachSite(fn func(k siteKey, a *siteAgg)) {
	s.mu.Lock()
	procs := make([]*producer, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	for _, p := range procs {
		p.mu.Lock()
		for k, a := range p.sites {
			fn(k, a)
		}
		p.mu.Unlock()
	}
}

// Fleet builds the fleet summary.
func (s *Store) Fleet() FleetSummary {
	var sum FleetSummary

	classes := map[string]*ClassStat{}
	s.forEachSite(func(k siteKey, a *siteAgg) {
		cs := classes[k.class]
		if cs == nil {
			cs = &ClassStat{Class: k.class}
			classes[k.class] = cs
		}
		switch k.kind {
		case trace.KindTransition:
			cs.Transitions += a.count
		case trace.KindAccept:
			cs.Accepts += a.count
		case trace.KindFail:
			cs.Failures += a.count
			sum.TotalFailures += a.count
			sum.FailureSites++
		}
	})
	for _, cs := range classes {
		sum.Classes = append(sum.Classes, *cs)
	}
	sort.Slice(sum.Classes, func(i, j int) bool { return sum.Classes[i].Class < sum.Classes[j].Class })

	s.mu.Lock()
	for _, p := range s.procs {
		ps := ProducerStat{
			Process:       p.process,
			Tool:          p.tool,
			Connected:     p.connections > 0,
			Clean:         p.clean,
			Disconnects:   p.disconnects,
			Frames:        p.frames,
			Events:        p.events,
			DroppedFrames: p.droppedFrames,
			DroppedEvents: p.droppedEvents,
			RingDropped:   p.ringDropped,
			BadFrames:     p.badFrames,
			DupFrames:     p.dupFrames,
			DupEvents:     p.dupEvents,
		}
		if p.hasBye {
			ps.SentFrames = p.bye.SentFrames
			ps.SentEvents = p.bye.SentEvents
			ps.ClientDropped = p.bye.ClientDroppedEvents
			sum.ClientDropped += p.bye.ClientDroppedEvents
		}
		sum.TotalFrames += p.frames
		sum.TotalEvents += p.events
		sum.DroppedFrames += p.droppedFrames
		sum.DroppedEvents += p.droppedEvents
		sum.RingDropped += p.ringDropped
		if p.clean {
			sum.CleanProducers++
		}
		if p.disconnects > 0 {
			sum.Disconnected++
		}
		sum.Producers = append(sum.Producers, ps)
	}
	s.mu.Unlock()
	sort.Slice(sum.Producers, func(i, j int) bool { return sum.Producers[i].Process < sum.Producers[j].Process })
	return sum
}

// Failures lists every failing site fleet-wide, most frequent first.
func (s *Store) Failures() []FailureSite {
	type fleetKey struct{ class, verdict, symbol string }
	merged := map[fleetKey]map[string]uint64{}
	s.forEachSite(func(k siteKey, a *siteAgg) {
		if k.kind != trace.KindFail {
			return
		}
		fk := fleetKey{k.class, k.verdict, k.symbol}
		if merged[fk] == nil {
			merged[fk] = map[string]uint64{}
		}
		merged[fk][k.process] += a.count
	})
	out := make([]FailureSite, 0, len(merged))
	for fk, procs := range merged {
		site := FailureSite{Class: fk.class, Verdict: fk.verdict, Symbol: fk.symbol}
		for proc, n := range procs {
			site.Total += n
			site.PerProcess = append(site.PerProcess, ProcCount{Process: proc, Count: n})
		}
		sort.Slice(site.PerProcess, func(i, j int) bool {
			a, b := site.PerProcess[i], site.PerProcess[j]
			if a.Count != b.Count {
				return a.Count > b.Count
			}
			return a.Process < b.Process
		})
		out = append(out, site)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Verdict != b.Verdict {
			return a.Verdict < b.Verdict
		}
		return a.Symbol < b.Symbol
	})
	return out
}

// TopK ranks a class's hottest transition sites fleet-wide. k <= 0 means
// all sites.
func (s *Store) TopK(class string, k int) []SiteCount {
	counts := map[string]uint64{}
	s.forEachSite(func(sk siteKey, a *siteAgg) {
		if sk.kind != trace.KindTransition || sk.class != class {
			return
		}
		counts[fmt.Sprintf("%d->%d @ %s", sk.from, sk.to, sk.symbol)] += a.count
	})
	out := make([]SiteCount, 0, len(counts))
	for site, n := range counts {
		out = append(out, SiteCount{Site: site, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Site < out[j].Site
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Samples returns the reservoir-sampled failure windows for a class (all
// classes when class is empty), in a stable order.
func (s *Store) Samples(class string) []Sample {
	var out []Sample
	s.forEachSite(func(k siteKey, a *siteAgg) {
		if k.kind != trace.KindFail || (class != "" && k.class != class) {
			return
		}
		for _, smp := range a.samples {
			out = append(out, Sample{Process: smp.Process, Events: append([]trace.Event(nil), smp.Events...)})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Process != b.Process {
			return a.Process < b.Process
		}
		return a.Events[len(a.Events)-1].Seq < b.Events[len(b.Events)-1].Seq
	})
	return out
}

// Health sums each class's latest per-producer health rows fleet-wide.
func (s *Store) Health() []FleetHealth {
	merged := map[string]*FleetHealth{}
	s.mu.Lock()
	for _, p := range s.procs {
		for class, row := range p.health {
			fh := merged[class]
			if fh == nil {
				fh = &FleetHealth{Class: class}
				merged[class] = fh
			}
			if row.Quarantined {
				fh.Quarantined++
			}
			fh.Live += row.Live
			fh.Violations += row.Violations
			fh.Overflows += row.Overflows
			fh.Evictions += row.Evictions
			fh.Suppressed += row.Suppressed
			fh.Quarantines += row.Quarantines
			fh.HandlerPanics += row.HandlerPanics
		}
	}
	s.mu.Unlock()
	out := make([]FleetHealth, 0, len(merged))
	for _, fh := range merged {
		out = append(out, *fh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
