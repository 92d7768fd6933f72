package core

import (
	"sync"
	"testing"

	"tesla/internal/faultinject"
)

// shardConfigs are the global store layouts every store benchmark runs
// under, as `shards=…` sub-benchmarks: one stripe against the GOMAXPROCS-
// sized default (Shards 0). `make bench-compare` runs them once and lets
// benchstat put the two side by side.
var shardConfigs = []struct {
	name   string
	shards int
}{{"shards=1", 1}, {"shards=auto", 0}}

// benchStore builds the OLTP-session store every store benchmark drives: a
// pool of keyed sessions (128 in the global-store benchmarks) inside a much
// larger preallocated block, so no rung ever overflows. Plans are lowered
// once, so the benchmarks price the event path, not lowering.
func benchStore(opts StoreOpts, sessions int) (s *Store, work, site *SymbolPlan) {
	cls := &Class{Name: "bench", States: 8, Limit: 1024}
	s = NewStoreOpts(opts)
	s.Register(cls)
	enter := NewSymbolPlan(cls, "enter", 0, TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}})
	work = NewSymbolPlan(cls, "work", 0, TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 1, KeyMask: 1}})
	site = NewSymbolPlan(cls, "site", SymRequired, TransitionSet{{From: 1, To: 1, KeyMask: 1}, {From: 2, To: 2, KeyMask: 1}})
	for k := 0; k < sessions; k++ {
		s.UpdateStatePlan(enter, NewKey(Value(k)))
	}
	return s, work, site
}

// BenchmarkStoreOLTP drives keyed work and required-site events through the
// global store from one goroutine.
func BenchmarkStoreOLTP(b *testing.B) {
	for _, c := range shardConfigs {
		b.Run(c.name, func(b *testing.B) {
			benchSessions(b, StoreOpts{Context: Global, Shards: c.shards}, 128)
		})
	}
}

// BenchmarkStorePerThread prices the per-thread store's one-event path:
// a PerThread store with 4 keyed sessions and the no-op handler, one
// UpdateStatePlan per event in BenchmarkStoreOLTP's work/site mix. Its
// name keeps it out of `make bench-compare`, whose StoreOLTP pattern
// compares global-store layouts; run it with -cpu 1.
func BenchmarkStorePerThread(b *testing.B) {
	benchSessions(b, StoreOpts{Context: PerThread}, 4)
}

// benchSessions is BenchmarkStoreOLTP's loop over a store built from opts
// with the given number of sessions.
func benchSessions(b *testing.B, opts StoreOpts, sessions int) {
	s, work, site := benchStore(opts, sessions)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := NewKey(Value(i % sessions))
		if i%8 == 7 {
			s.UpdateStatePlan(site, key)
		} else {
			s.UpdateStatePlan(work, key)
		}
	}
}

// BenchmarkStorePolicy prices the supervision policy on the event path: the
// one-goroutine session workload on an 8-stripe global store under each
// overflow policy, and under drop-new with 1% of allocations failing. The
// sessions fit the class limit, so each rung prices the policy plumbing, not
// degraded operation; the target is every rung within 3% of drop-new.
// `make bench-faults` runs it with -cpu 1, so extra Ps add no noise.
func BenchmarkStorePolicy(b *testing.B) {
	for _, c := range []struct {
		name string
		opts func() StoreOpts
	}{
		{"policy=drop-new", func() StoreOpts { return StoreOpts{} }},
		{"policy=evict-oldest", func() StoreOpts { return StoreOpts{Overflow: EvictOldest} }},
		{"policy=quarantine", func() StoreOpts { return StoreOpts{Overflow: QuarantineClass} }},
		{"policy=drop-new+inject1%", func() StoreOpts {
			inj := faultinject.New(1)
			inj.SetRate(faultinject.SiteAlloc, 0.01)
			return StoreOpts{AllocFail: func(cls *Class) bool {
				return inj.Should(faultinject.SiteAlloc, cls.Name)
			}}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := c.opts()
			opts.Context, opts.Shards = Global, 8
			benchSessions(b, opts, 128)
		})
	}
}

// BenchmarkStoreOLTPParallel is the contended variant: RunParallel drives
// disjoint key ranges from GOMAXPROCS goroutines.
func BenchmarkStoreOLTPParallel(b *testing.B) {
	for _, c := range shardConfigs {
		b.Run(c.name, func(b *testing.B) {
			s, work, site := benchStore(StoreOpts{Context: Global, Shards: c.shards}, 128)
			var nextG int
			var mu sync.Mutex
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				g := nextG
				nextG++
				mu.Unlock()
				base := (g * 16) % 128
				i := 0
				for pb.Next() {
					key := NewKey(Value(base + i%16))
					if i%8 == 7 {
						s.UpdateStatePlan(site, key)
					} else {
						s.UpdateStatePlan(work, key)
					}
					i++
				}
			})
		})
	}
}
