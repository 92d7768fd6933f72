package agg

import (
	"fmt"

	"tesla/internal/dtrace"
	"tesla/internal/trace"
)

// IngestTrace aggregates one (delta) trace attributed to process through
// the same producer ingester IngestFrame drives; the tests hold
// IngestFrame's answers to it.
func (s *Store) IngestTrace(process string, tr *trace.Trace) {
	p := s.lockProducer(process)
	defer p.mu.Unlock()
	for i := range tr.Events {
		s.feed(p, &tr.Events[i])
	}
	s.finish(p, tr.Dropped)
}

// Summarize rebuilds the dtrace.Summarize aggregations from the fleet
// store: the same keys, the same counts, as if every producer's trace had
// been concatenated and summarised offline. This is the differential
// surface the parity tests pin — fleet aggregation must be
// dtrace.Summarize scaled out, not a different answer.
func (s *Store) Summarize() *dtrace.Handler {
	h := dtrace.NewHandler(nil)
	s.forEachSite(func(k siteKey, a *siteAgg) {
		switch k.kind {
		case trace.KindTransition:
			h.Transitions.Add(dtrace.Key(k.class, fmt.Sprintf("%d->%d", k.from, k.to), k.symbol), a.count)
		case trace.KindAccept:
			h.Accepts.Add(dtrace.Key(k.class), a.count)
		case trace.KindFail:
			h.Failures.Add(dtrace.Key(k.class, k.verdict), a.count)
		}
	})
	return h
}
