package agg

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tesla/internal/trace"
)

// Store snapshot/restore: the durability half of tesla-agg. A snapshot
// is a frame-consistent copy of everything the store knows — totals,
// per-producer accounting including the sequence watermarks, every
// aggregated site with its reservoir samples — taken under the applyMu
// write lock so no frame is captured half-applied. It is written
// atomically (temp file, fsync, rename, directory fsync), so the file on
// disk is always a complete snapshot: either the old one or the new one,
// never a torn one. On restart, Restore rebuilds the store and the
// restored receivedSeq watermarks make resent frames from recovering
// producers deduplicate exactly where the snapshot left off — the server
// half of the exactly-once contract.

// SnapshotVersion is the snapshot schema version; mismatches are
// rejected at load (restoring half-understood state would corrupt
// accounting silently).
const SnapshotVersion = 1

// Snapshot is the serialised store state.
type Snapshot struct {
	Version int `json:"version"`

	// The fleet totals are sums over Producers, kept for readers of the
	// file; Restore rebuilds them from the producers.
	TotalFrames   uint64 `json:"totalFrames"`
	TotalEvents   uint64 `json:"totalEvents"`
	DroppedFrames uint64 `json:"droppedFrames"`
	DroppedEvents uint64 `json:"droppedEvents"`

	Producers []SnapProducer `json:"producers"`
	Sites     []SnapSite     `json:"sites"`
}

// SnapProducer is one producer's persisted accounting. Seq is the
// applied watermark at snapshot time — after a restore it becomes the
// received, applied and durable watermark at once.
type SnapProducer struct {
	Process       string               `json:"process"`
	Tool          string               `json:"tool,omitempty"`
	Clean         bool                 `json:"clean,omitempty"`
	Disconnects   int                  `json:"disconnects,omitempty"`
	Frames        uint64               `json:"frames"`
	Events        uint64               `json:"events"`
	DroppedFrames uint64               `json:"droppedFrames,omitempty"`
	DroppedEvents uint64               `json:"droppedEvents,omitempty"`
	RingDropped   uint64               `json:"ringDropped,omitempty"`
	BadFrames     uint64               `json:"badFrames,omitempty"`
	DupFrames     uint64               `json:"dupFrames,omitempty"`
	DupEvents     uint64               `json:"dupEvents,omitempty"`
	Seq           uint64               `json:"seq,omitempty"`
	Bye           *Bye                 `json:"bye,omitempty"`
	Health        map[string]HealthRow `json:"health,omitempty"`
}

// SnapSite is one aggregated cell.
type SnapSite struct {
	Process string     `json:"process"`
	Class   string     `json:"class"`
	Kind    trace.Kind `json:"kind"`
	From    uint32     `json:"from,omitempty"`
	To      uint32     `json:"to,omitempty"`
	Symbol  string     `json:"symbol,omitempty"`
	Verdict string     `json:"verdict,omitempty"`
	Count   uint64     `json:"count"`
	Seen    uint64     `json:"seen,omitempty"`
	Samples []Sample   `json:"samples,omitempty"`
}

// Snapshot captures the store. It blocks frame applies for the copy
// (applyMu write side), which is the price of frame-atomicity; the copy
// itself is proportional to live state, not to ingestion history.
func (s *Store) Snapshot() *Snapshot {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()

	snap := &Snapshot{Version: SnapshotVersion}
	s.forEachSite(func(k siteKey, a *siteAgg) {
		site := SnapSite{
			Process: k.process, Class: k.class, Kind: k.kind,
			From: k.from, To: k.to, Symbol: k.symbol, Verdict: k.verdict,
			Count: a.count, Seen: a.seen,
		}
		for _, smp := range a.samples {
			site.Samples = append(site.Samples, Sample{
				Process: smp.Process,
				Events:  append([]trace.Event(nil), smp.Events...),
			})
		}
		snap.Sites = append(snap.Sites, site)
	})
	sort.Slice(snap.Sites, func(i, j int) bool { return siteLess(&snap.Sites[i], &snap.Sites[j]) })

	s.mu.Lock()
	for _, p := range s.procs {
		sp := SnapProducer{
			Process:       p.process,
			Tool:          p.tool,
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
			Seq:           p.appliedSeq,
		}
		snap.TotalFrames += p.frames
		snap.TotalEvents += p.events
		snap.DroppedFrames += p.droppedFrames
		snap.DroppedEvents += p.droppedEvents
		if p.hasBye {
			bye := p.bye
			sp.Bye = &bye
		}
		if len(p.health) > 0 {
			sp.Health = make(map[string]HealthRow, len(p.health))
			for k, v := range p.health {
				sp.Health[k] = v
			}
		}
		snap.Producers = append(snap.Producers, sp)
	}
	s.mu.Unlock()
	sort.Slice(snap.Producers, func(i, j int) bool {
		return snap.Producers[i].Process < snap.Producers[j].Process
	})
	return snap
}

func siteLess(a, b *SnapSite) bool {
	switch {
	case a.Process != b.Process:
		return a.Process < b.Process
	case a.Class != b.Class:
		return a.Class < b.Class
	case a.Kind != b.Kind:
		return a.Kind < b.Kind
	case a.From != b.From:
		return a.From < b.From
	case a.To != b.To:
		return a.To < b.To
	case a.Symbol != b.Symbol:
		return a.Symbol < b.Symbol
	default:
		return a.Verdict < b.Verdict
	}
}

// WriteSnapshot snapshots the store and persists it atomically at path,
// then advances every producer's durable watermark to the snapshotted
// sequence. It returns those watermarks so the server can broadcast
// fresh acks — the moment a snapshot lands is the moment clients may
// prune their spools.
func (s *Store) WriteSnapshot(path string) (map[string]uint64, error) {
	snap := s.Snapshot()
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(path, data); err != nil {
		return nil, err
	}
	durable := make(map[string]uint64, len(snap.Producers))
	s.mu.Lock()
	for _, sp := range snap.Producers {
		p := s.proc(sp.Process)
		if sp.Seq > p.durableSeq {
			p.durableSeq = sp.Seq
		}
		durable[sp.Process] = p.durableSeq
	}
	s.mu.Unlock()
	return durable, nil
}

// LoadSnapshot reads a snapshot file. A missing file is (nil, nil): a
// fresh store is the correct restore of "never snapshotted".
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("agg: snapshot %s: %w", path, err)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("agg: snapshot %s is schema v%d; this tesla-agg reads v%d", path, snap.Version, SnapshotVersion)
	}
	return &snap, nil
}

// Restore installs a snapshot into a fresh store (nil is a no-op). Every
// producer comes back disconnected with its received, applied and
// durable watermarks set to the snapshotted sequence, so a recovering
// producer's resends deduplicate from exactly the durable prefix.
// Reservoir RNG state is not persisted: post-restore samples continue
// from the configured seed, which keeps sampling fair but not byte-
// reproducible across a crash (counts, unlike samples, are exact).
func (s *Store) Restore(snap *Snapshot) {
	if snap == nil {
		return
	}
	for i := range snap.Sites {
		site := &snap.Sites[i]
		k := siteKey{
			process: site.Process, class: site.Class, kind: site.Kind,
			from: site.From, to: site.To, symbol: site.Symbol, verdict: site.Verdict,
		}
		p := s.lockProducer(site.Process)
		a := p.site(k)
		a.count = site.Count
		a.seen = site.Seen
		a.samples = nil
		for _, smp := range site.Samples {
			a.samples = append(a.samples, Sample{
				Process: smp.Process,
				Events:  append([]trace.Event(nil), smp.Events...),
			})
		}
		p.mu.Unlock()
	}

	s.mu.Lock()
	for _, sp := range snap.Producers {
		p := s.proc(sp.Process)
		p.tool = sp.Tool
		p.clean = sp.Clean
		p.disconnects = sp.Disconnects
		p.frames = sp.Frames
		p.events = sp.Events
		p.droppedFrames = sp.DroppedFrames
		p.droppedEvents = sp.DroppedEvents
		p.ringDropped = sp.RingDropped
		p.badFrames = sp.BadFrames
		p.dupFrames = sp.DupFrames
		p.dupEvents = sp.DupEvents
		p.receivedSeq = sp.Seq
		p.appliedSeq = sp.Seq
		p.durableSeq = sp.Seq
		if sp.Bye != nil {
			p.bye = *sp.Bye
			p.hasBye = true
		}
		if len(sp.Health) > 0 {
			p.health = make(map[string]HealthRow, len(sp.Health))
			for k, v := range sp.Health {
				p.health[k] = v
			}
		}
	}
	s.mu.Unlock()
}

// writeFileAtomic writes data so path always holds either the previous
// complete file or the new complete file: write to a temp file in the
// same directory, fsync it, rename over path, fsync the directory.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
