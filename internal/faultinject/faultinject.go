// Package faultinject is a deterministic, seeded fault-injection source for
// chaos-testing the monitor's supervision layer (instance-allocation
// failures, handler panics, trace-ring drops). It answers one question —
// "should this attempt fail?" — from pure arithmetic over (seed, site,
// label, attempt index), so a decision depends only on how many attempts its
// own stream has seen, never on wall clock, goroutine scheduling or the
// interleaving of other streams. Two injectors built from the same seed and
// asked the same questions give identical answers, which is what lets the
// differential harness drive the reference and sharded stores through
// byte-identical fault schedules.
//
// The package is deliberately ignorant of the runtime it breaks: sites and
// labels are strings, and the integration points (core.StoreOpts.AllocFail,
// trace.Recorder.DropFault, panicking test handlers) are closures written at
// the call site:
//
//	inj := faultinject.New(42)
//	inj.SetRate(faultinject.SiteAlloc, 0.01)
//	opts.AllocFail = func(cls *core.Class) bool {
//		return inj.Should(faultinject.SiteAlloc, cls.Name)
//	}
package faultinject

import (
	"math"
	"sync"
)

// Conventional site names. Nothing in the injector treats them specially;
// they exist so tests and tools agree on spelling.
const (
	// SiteAlloc is an instance-slot allocation in a store.
	SiteAlloc = "alloc"
	// SiteHandlerPanic is a lifecycle-handler invocation.
	SiteHandlerPanic = "handler-panic"
	// SiteTraceDrop is a trace-ring push.
	SiteTraceDrop = "trace-drop"
	// SiteWALWrite is a write-ahead-spool frame write (trace.SpoolOpts.
	// WriteFault).
	SiteWALWrite = "wal-write"
	// SiteWALSync is a write-ahead-spool fsync (trace.SpoolOpts.SyncFault).
	SiteWALSync = "wal-sync"
)

// stream identifies one independent decision sequence.
type stream struct {
	site  string
	label string
}

// streamStat is one stream's attempt/fire accounting.
type streamStat struct {
	attempts uint64
	fired    uint64
}

// Injector makes deterministic per-(site, label) fault decisions. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Injector struct {
	seed uint64

	mu    sync.Mutex
	rates map[string]uint64 // site → fire threshold in [0, 2^64)
	every map[string]uint64 // site → fire every nth attempt (overrides rate)
	stats map[stream]*streamStat
}

// New creates an injector. Every site starts inert (rate 0): an injector
// nobody configured never fires, so seams can stay installed in production
// paths at zero risk.
func New(seed uint64) *Injector {
	return &Injector{
		seed:  seed,
		rates: make(map[string]uint64),
		every: make(map[string]uint64),
		stats: make(map[stream]*streamStat),
	}
}

// SetRate arms a site with a fire probability in [0, 1]. Each stream of the
// site draws independently but deterministically: attempt n of (site, label)
// fires iff hash(seed, site, label, n) falls under the rate threshold.
func (in *Injector) SetRate(site string, rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	in.mu.Lock()
	if rate == 1 {
		in.rates[site] = math.MaxUint64
	} else {
		in.rates[site] = uint64(rate * float64(1<<63) * 2)
	}
	delete(in.every, site)
	in.mu.Unlock()
}

// SetEvery arms a site to fire on every nth attempt of each stream (n ≥ 1;
// n == 1 fires always). It overrides any rate for the site — the exact
// cadence suits unit tests that need the kth allocation to fail.
func (in *Injector) SetEvery(site string, n uint64) {
	if n == 0 {
		n = 1
	}
	in.mu.Lock()
	in.every[site] = n
	delete(in.rates, site)
	in.mu.Unlock()
}

// Should advances the (site, label) stream by one attempt and reports
// whether that attempt fails. Decision n of a stream is a pure function of
// (seed, site, label, n).
func (in *Injector) Should(site, label string) bool {
	k := stream{site: site, label: label}
	in.mu.Lock()
	st := in.stats[k]
	if st == nil {
		st = &streamStat{}
		in.stats[k] = st
	}
	st.attempts++
	n := st.attempts
	fire := false
	if every, ok := in.every[site]; ok {
		fire = n%every == 0
	} else if thr, ok := in.rates[site]; ok && thr > 0 {
		fire = draw(in.seed, site, label, n) < thr || thr == math.MaxUint64
	}
	if fire {
		st.fired++
	}
	in.mu.Unlock()
	return fire
}

// Fired returns how many attempts of the (site, label) stream failed.
func (in *Injector) Fired(site, label string) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.stats[stream{site: site, label: label}]; st != nil {
		return st.fired
	}
	return 0
}

// TotalFired sums fired counts across all streams.
func (in *Injector) TotalFired() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, st := range in.stats {
		n += st.fired
	}
	return n
}

// draw hashes one attempt of one stream into a uniform uint64. FNV-1a over
// the identifying strings folds the stream into the seed; a splitmix64
// finaliser then decorrelates consecutive attempt indices.
func draw(seed uint64, site, label string, n uint64) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 0x100000001b3
	}
	h ^= 0x7c
	h *= 0x100000001b3
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	h ^= n
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
