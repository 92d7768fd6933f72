package agg

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"tesla/internal/trace"
)

// Store is the fleet aggregation store: per-(process, class, site)
// counters over the lifecycle events of every ingested trace frame, plus
// reservoir samples of the event windows leading into failures, plus the
// latest health counters each producer reported. It aggregates per
// producer: every site key names its process, and every site write comes
// from that process's frame apply (or from Restore, before serving), so
// each producer record owns its sites and the ingester that applies its
// frames, under the record's own lock. Connection workers of different
// producers aggregate in parallel; one producer's frames apply one at a
// time, on whichever connection they arrive. Reservoir draws are a
// function of the seed and the site alone. Producer bookkeeping
// (connect/bye/disconnect, per-producer ingest and drop counters) lives
// under mu; fleet totals are sums over it at query time.
//
// Lock order: applyMu, then a producer's mu, then mu — never mu before a
// producer's mu.
type Store struct {
	sampleSeed uint64
	sampleCap  int
	window     int

	// applyMu makes snapshots frame-atomic: every frame apply (events +
	// counters + appliedSeq advance) holds the read side, and
	// Snapshot takes the write side, so a snapshot never captures half a
	// frame's effects — the invariant that lets the ack-then-resend
	// protocol promise exactly-once accounting across a server crash.
	applyMu sync.RWMutex
	// durable is set once a snapshot loop owns this store: acks then
	// advance only to the last snapshotted (durable) sequence, so a
	// client never prunes a frame the server could still lose.
	durable atomic.Bool

	mu    sync.Mutex
	procs map[string]*producer
}

// StoreOpts configures a Store; the zero value selects the defaults.
type StoreOpts struct {
	// SampleCap bounds each failing site's reservoir (default 4).
	SampleCap int
	// Window is how many events of leading context a failure sample
	// keeps (default 8).
	Window int
	// Seed seeds the reservoir draws, together with each failing site's
	// key; a fixed seed plus a deterministic ingestion order per producer
	// gives byte-stable samples (the golden-output example relies on
	// this).
	Seed int64
}

// siteKey identifies one aggregated cell. Process is part of the key so
// per-process breakdowns are exact; fleet-wide rollups sum over it at
// query time (fleet scale here is thousands of processes, not millions
// of sites, so query-time summation is the simple and correct trade).
type siteKey struct {
	process string
	class   string
	kind    trace.Kind // KindTransition, KindAccept or KindFail
	from    uint32
	to      uint32
	symbol  string
	verdict string
}

type siteAgg struct {
	count uint64
	// seen and samples implement reservoir sampling (algorithm R) of
	// failure windows; both stay zero/nil for non-failure sites.
	seen    uint64
	samples []Sample
}

// Sample is one reservoir-sampled failure: the failing event plus up to
// Window preceding events from the same frame.
type Sample struct {
	Process string        `json:"process"`
	Events  []trace.Event `json:"events"`
}

// producer is the per-process record. Its accounting is guarded by
// Store.mu; its sites and ingester by its own mu, which a frame apply
// holds from the frame's first event until its counters are booked.
type producer struct {
	process string

	mu    sync.Mutex
	sites map[siteKey]*siteAgg
	in    ingester

	tool string

	connections int  // live connections
	disconnects int  // connections that ended without a bye
	clean       bool // at least one bye received

	frames        uint64 // ingested
	events        uint64
	droppedFrames uint64 // server-side queue drops
	droppedEvents uint64
	ringDropped   uint64 // producer ring losses (summed from frame headers)
	badFrames     uint64 // frames that failed to decode
	dupFrames     uint64 // resends deduplicated by sequence number
	dupEvents     uint64

	// Sequence watermarks. receivedSeq is the highest sequence
	// accepted for ingestion or drop accounting — anything at or below it
	// is a duplicate resend. appliedSeq trails it by at most the worker
	// queue; durableSeq trails appliedSeq by at most one snapshot
	// interval. Acks advance to durableSeq when snapshots run, else to
	// appliedSeq.
	receivedSeq uint64
	appliedSeq  uint64
	durableSeq  uint64

	bye    Bye
	hasBye bool

	health map[string]HealthRow
}

// NewStore creates a fleet store.
func NewStore(opts StoreOpts) *Store {
	cap := opts.SampleCap
	if cap <= 0 {
		cap = 4
	}
	win := opts.Window
	if win <= 0 {
		win = 8
	}
	return &Store{
		sampleSeed: uint64(opts.Seed),
		sampleCap:  cap,
		window:     win,
		procs:      map[string]*producer{},
	}
}

// ingester applies one frame's events as they arrive, one at a time. It
// holds a ring of the last Window events — the leading context of a
// failure sample — and copies a sample out of it only when a failure
// arrives, so a frame is aggregated in memory bounded by the window, not
// by the frame. Window context is frame-local: a failure in the first
// events of a delta carries less context, never wrong context.
//
// Each producer owns one and reuses it frame after frame. IngestFrame
// decodes into ev, reused for every event; dec keeps the decoded Vals and
// InStack in its arena until the frame ends.
type ingester struct {
	win    []trace.Event // ring of len Store.window
	start  int           // index of the oldest windowed event
	n      int           // windowed events
	events uint64
	dec    trace.Decoder
	ev     trace.Event
}

// reset clears the window, the reused event and the decoder, so the
// ingester pins none of the last frame's events and none of its payload.
func (in *ingester) reset() {
	clear(in.win)
	in.ev = trace.Event{}
	in.dec.Reset(nil) // lets go of the payload; the error is the empty input's
	in.start, in.n, in.events = 0, 0, 0
}

// lockProducer returns process's record with its mu held: the caller
// owns the producer's sites and ingester until it unlocks.
func (s *Store) lockProducer(process string) *producer {
	s.mu.Lock()
	p := s.proc(process)
	s.mu.Unlock()
	p.mu.Lock()
	return p
}

// site returns (creating if needed) p's cell for k; p.mu must be held.
func (p *producer) site(k siteKey) *siteAgg {
	a := p.sites[k]
	if a == nil {
		a = &siteAgg{}
		p.sites[k] = a
	}
	return a
}

// feed applies one event of p's frame, then slides it into the window;
// p.mu must be held.
func (s *Store) feed(p *producer, ev *trace.Event) {
	in := &p.in
	switch ev.Kind {
	case trace.KindTransition:
		p.site(siteKey{process: p.process, class: ev.Class, kind: ev.Kind, from: ev.From, to: ev.To, symbol: ev.Symbol}).count++
	case trace.KindAccept:
		p.site(siteKey{process: p.process, class: ev.Class, kind: ev.Kind}).count++
	case trace.KindFail:
		// The sample outlives the frame: it owns deep copies of the
		// windowed events, whose slices point into the decoder's arena
		// or the caller's trace.
		sample := make([]trace.Event, 0, in.n+1)
		for i := 0; i < in.n; i++ {
			sample = append(sample, ownEvent(in.win[(in.start+i)%len(in.win)]))
		}
		s.fail(p, siteKey{process: p.process, class: ev.Class, kind: ev.Kind,
			symbol: ev.Symbol, verdict: ev.Verdict.String()}, append(sample, ownEvent(*ev)))
	}
	if in.n < len(in.win) {
		in.win[(in.start+in.n)%len(in.win)] = *ev
		in.n++
	} else {
		in.win[in.start] = *ev
		in.start = (in.start + 1) % len(in.win)
	}
	in.events++
}

// ownEvent returns ev with its own copies of Vals and InStack.
func ownEvent(ev trace.Event) trace.Event {
	ev.Vals, ev.InStack = slices.Clone(ev.Vals), slices.Clone(ev.InStack)
	return ev
}

// fail counts one failure at p's site k and offers its sample to the
// site's reservoir; p.mu must be held.
func (s *Store) fail(p *producer, k siteKey, sample []trace.Event) {
	a := p.site(k)
	a.count++
	a.seen++
	if len(a.samples) < s.sampleCap {
		a.samples = append(a.samples, Sample{Process: k.process, Events: sample})
	} else if j := s.draw(k, a.seen); j < uint64(s.sampleCap) {
		a.samples[j] = Sample{Process: k.process, Events: sample}
	}
}

// finish books p's frame against its totals and resets its ingester;
// p.mu must be held.
func (s *Store) finish(p *producer, ringDropped uint64) {
	s.mu.Lock()
	p.frames++
	p.events += p.in.events
	p.ringDropped += ringDropped
	s.mu.Unlock()
	p.in.reset()
}

// draw returns the reservoir slot for a site's seen-th failure, uniform in
// [0, seen). It is splitmix64's seen-th output from a state seeded by the
// store's seed and an FNV-1a hash of the site key, so it depends on
// nothing else: stores with one seed keep the same samples, and the draw
// needs no per-site state.
func (s *Store) draw(k siteKey, seen uint64) uint64 {
	z := s.sampleSeed ^ siteHash(k)
	z += seen * 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	j, _ := bits.Mul64(z, seen)
	return j
}

// siteHash is FNV-1a over every field of the site key, each string
// NUL-terminated.
func siteHash(k siteKey) uint64 {
	h := uint64(14695981039346656037)
	for _, str := range [...]string{k.process, k.class, k.symbol, k.verdict} {
		for i := 0; i < len(str); i++ {
			h = (h ^ uint64(str[i])) * 1099511628211
		}
		h *= 1099511628211 // the NUL
	}
	for _, v := range [...]uint32{uint32(k.kind), k.from, k.to} {
		for i := 0; i < 4; i++ {
			h = (h ^ uint64(byte(v>>(8*i)))) * 1099511628211
		}
	}
	return h
}

// IngestFrame decodes and aggregates one trace payload: the event count
// prefix, then the binary trace. Events decode straight from the payload
// into the producer's ingester one at a time; the frame is never
// materialised as an event slice, and nothing keeps the payload once
// IngestFrame returns. The declared count is the drop-accounting unit; a
// payload whose decode dies mid-way contributes the events it actually
// yielded and marks the producer's frame bad.
func (s *Store) IngestFrame(process string, payload []byte) error {
	declared, n := binary.Uvarint(payload)
	if n <= 0 {
		s.markBadFrame(process)
		return fmt.Errorf("agg: trace frame missing event-count prefix")
	}
	p := s.lockProducer(process)
	defer p.mu.Unlock()
	in := &p.in
	if err := in.dec.Reset(payload[n:]); err != nil {
		in.reset()
		s.markBadFrame(process)
		return fmt.Errorf("agg: trace frame from %s: %w", process, err)
	}
	for in.dec.Next(&in.ev) == nil {
		s.feed(p, &in.ev)
	}
	decoded := in.events
	s.finish(p, in.dec.Dropped())
	if decoded != declared {
		s.markBadFrame(process)
		return fmt.Errorf("agg: trace frame from %s declared %d events, decoded %d", process, declared, decoded)
	}
	return nil
}

// DropFrame records a server-side rejection of a trace frame: counted
// against the producer, never silent.
func (s *Store) DropFrame(process string, events uint64) {
	s.mu.Lock()
	p := s.proc(process)
	p.droppedFrames++
	p.droppedEvents += events
	s.mu.Unlock()
}

// MergeHealth installs a producer's latest health report. Reports are
// cumulative per producer, so latest-wins is the correct merge; the
// fleet rollup sums the latest row of every producer.
func (s *Store) MergeHealth(process string, rows []HealthRow) {
	s.mu.Lock()
	p := s.proc(process)
	if p.health == nil {
		p.health = map[string]HealthRow{}
	}
	for _, row := range rows {
		p.health[row.Class] = row
	}
	s.mu.Unlock()
}

// proc returns (creating if needed) a producer record; s.mu must be held.
func (s *Store) proc(process string) *producer {
	p := s.procs[process]
	if p == nil {
		p = &producer{process: process, sites: map[siteKey]*siteAgg{}}
		p.in.win = make([]trace.Event, s.window)
		s.procs[process] = p
	}
	return p
}

// Connected records a producer connection from the hello handshake.
func (s *Store) Connected(h Hello) {
	s.mu.Lock()
	p := s.proc(h.Process)
	p.tool = h.Tool
	p.connections++
	s.mu.Unlock()
}

// ByeReceived records a producer's final accounting.
func (s *Store) ByeReceived(process string, b Bye) {
	s.mu.Lock()
	p := s.proc(process)
	p.bye = b
	p.hasBye = true
	p.clean = true
	s.mu.Unlock()
}

// Closed records the end of a producer connection; clean reports whether
// a bye preceded it.
func (s *Store) Closed(process string, clean bool) {
	s.mu.Lock()
	p := s.proc(process)
	p.connections--
	if !clean {
		p.disconnects++
	}
	s.mu.Unlock()
}

func (s *Store) markBadFrame(process string) {
	s.mu.Lock()
	s.proc(process).badFrames++
	s.mu.Unlock()
}

// BeginSeqFrame claims a frame's sequence number for process: it
// reports true and advances the received watermark when the frame is
// fresh, and false — counting a deduplicated resend — when seq was
// already received on this or an earlier connection (or, after a
// restore, covered by the restored snapshot). A false return means the
// frame must be acked but not ingested: the accounting the client closed
// over it the first time already stands.
func (s *Store) BeginSeqFrame(process string, seq, events uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.proc(process)
	if seq <= p.receivedSeq {
		p.dupFrames++
		p.dupEvents += events
		return false
	}
	p.receivedSeq = seq
	return true
}

// ApplySeqFrame ingests one claimed frame and advances the applied
// watermark, atomically with respect to Snapshot: a snapshot sees either
// none or all of a frame's effects, so a restore plus resend can never
// double-apply.
func (s *Store) ApplySeqFrame(process string, seq uint64, tracePayload []byte) error {
	s.applyMu.RLock()
	defer s.applyMu.RUnlock()
	err := s.IngestFrame(process, tracePayload)
	s.mu.Lock()
	if p := s.proc(process); seq > p.appliedSeq {
		p.appliedSeq = seq
	}
	s.mu.Unlock()
	return err
}

// DropSeqFrame records a server-side queue rejection of a claimed
// frame. The drop advances the applied watermark like an apply would —
// the frame's fate is decided and accounted, so it is ackable and must
// not be resent.
func (s *Store) DropSeqFrame(process string, seq, events uint64) {
	s.applyMu.RLock()
	defer s.applyMu.RUnlock()
	s.DropFrame(process, events)
	s.mu.Lock()
	if p := s.proc(process); seq > p.appliedSeq {
		p.appliedSeq = seq
	}
	s.mu.Unlock()
}

// AckSeq returns the sequence watermark safe to acknowledge to process:
// the durable (last-snapshotted) sequence when a snapshot loop owns the
// store, the applied sequence otherwise. Acking anything further ahead
// would let the client discard frames a crash could still lose.
func (s *Store) AckSeq(process string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.proc(process)
	if s.durable.Load() {
		return p.durableSeq
	}
	return p.appliedSeq
}

// SetDurable declares whether a snapshot loop persists this store,
// switching AckSeq between the durable and applied watermarks.
func (s *Store) SetDurable(on bool) { s.durable.Store(on) }
