package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the durability half of the trace layer: a segmented
// write-ahead spool. A Spool is an append-only log of opaque frames —
// each frame carries a length prefix and a CRC — split across bounded
// segment files, with a configurable fsync policy. Opening a spool
// repairs it: a tail torn by a crash (a half-written frame, a corrupt
// CRC, a truncated header) is cut back to the last whole frame, so a
// recovered spool is always a valid frame prefix of what was appended.
//
// Two producers sit on it: tesla-run -trace-spool streams delta traces
// (Recorder.CutInto cuts, via SpoolWriter) so a SIGKILL'd process loses
// at most one flush interval of events, and the tesla-agg client
// overflows undeliverable wire frames to disk so a server outage or a
// producer crash never silently loses accounted events.

// walMagic opens every segment file, followed by one version byte.
const walMagic = "TESLAWAL"

// walVersion is the segment format version. Openers reject others.
const walVersion = 1

const walHeaderSize = len(walMagic) + 1

// walFrameHeader is the per-frame header: 4-byte little-endian payload
// length, then 4-byte little-endian CRC-32C of the payload.
const walFrameHeader = 8

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms that matter.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SpoolSync selects when appends reach stable storage.
type SpoolSync int

const (
	// SpoolSyncAlways fsyncs after every append — the default, and what
	// the crash gate's prefix invariant assumes: an Append that returned
	// is durable.
	SpoolSyncAlways SpoolSync = iota
	// SpoolSyncInterval fsyncs at most once per spoolSyncEvery, trading
	// the tail of one interval for fewer fsyncs.
	SpoolSyncInterval
	// SpoolSyncNone never fsyncs explicitly; durability is whatever the
	// OS page cache provides. Survives process crashes, not power loss.
	SpoolSyncNone
)

// ParseSpoolSync maps the flag spellings to a policy.
func ParseSpoolSync(s string) (SpoolSync, error) {
	switch s {
	case "", "always":
		return SpoolSyncAlways, nil
	case "interval":
		return SpoolSyncInterval, nil
	case "none":
		return SpoolSyncNone, nil
	}
	return 0, fmt.Errorf("trace: unknown spool sync policy %q (want always, interval or none)", s)
}

// spoolSyncEvery is the SpoolSyncInterval cadence.
const spoolSyncEvery = 50 * time.Millisecond

// SpoolOpts configures a Spool; the zero value selects the defaults.
type SpoolOpts struct {
	// Sync is the fsync policy (default SpoolSyncAlways).
	Sync SpoolSync
	// segmentBytes rotates to a fresh segment file once the active one
	// exceeds this size (default 4 MiB). Only tests lower it.
	segmentBytes int64
	// WriteFault and SyncFault are fault-injection seams: when non-nil
	// and returning an error, the corresponding file operation fails
	// with it before touching the disk. Wired to internal/faultinject by
	// the crash gate; nil in production.
	WriteFault func(n int) error
	SyncFault  func() error
}

// SpoolRecovery reports what opening a spool had to repair.
type SpoolRecovery struct {
	// Frames is the count of valid frames found.
	Frames uint64
	// TruncatedBytes is how much torn or corrupt tail was cut away.
	TruncatedBytes int64
	// DroppedSegments names, in order, the whole segments discarded
	// because an earlier segment's corruption ended the valid prefix
	// before them.
	DroppedSegments []string
}

// Note describes the repair in one line for an operator, or returns ""
// when the spool needed none.
func (r SpoolRecovery) Note() string {
	if r.TruncatedBytes == 0 && len(r.DroppedSegments) == 0 {
		return ""
	}
	note := fmt.Sprintf("repaired on open: cut %d torn or corrupt byte(s)", r.TruncatedBytes)
	if len(r.DroppedSegments) > 0 {
		note += fmt.Sprintf(", dropped %d segment(s) past the corruption: %s",
			len(r.DroppedSegments), strings.Join(r.DroppedSegments, ", "))
	}
	return note
}

// Spool is a segmented append-only frame log. All methods are safe for
// concurrent use.
type Spool struct {
	dir  string
	opts SpoolOpts

	mu       sync.Mutex
	f        *os.File
	seg      int   // active segment index
	size     int64 // active segment size
	frames   uint64
	lastSync time.Time
	broken   error // a failed append poisons the spool until reopened
	closed   bool
	recov    SpoolRecovery
	// frame is Append's reusable header+payload buffer, kept while it
	// stays within spoolFrameKeep.
	frame []byte
}

// spoolFrameKeep caps the frame buffer a spool keeps between appends, so
// one oversized frame does not pin its size for the spool's lifetime.
const spoolFrameKeep = 1 << 20

func segName(i int) string { return fmt.Sprintf("wal-%06d.seg", i) }

// OpenSpool opens (creating if needed) the spool in dir, repairing any
// torn tail left by a crash: the last valid frame boundary becomes the
// new end of the log, and anything after it — a half-written frame, a
// CRC mismatch, segments past a corrupt one — is truncated or dropped.
func OpenSpool(dir string, opts SpoolOpts) (*Spool, error) {
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	s := &Spool{dir: dir, opts: opts}

	// Scan the segments in order. The valid prefix ends at the first
	// corruption; the segment holding it is truncated back to its last
	// whole frame and every later segment is dropped.
	end := len(segs)
	for i, seg := range segs {
		valid, frames, total, err := walkSegment(filepath.Join(dir, segName(seg)), nil)
		if err != nil {
			return nil, err
		}
		s.frames += frames
		if valid < total {
			s.recov.TruncatedBytes += total - valid
			if err := os.Truncate(filepath.Join(dir, segName(seg)), valid); err != nil {
				return nil, fmt.Errorf("trace: spool repair: %w", err)
			}
			end = i + 1
			break
		}
	}
	for _, seg := range segs[end:] {
		if err := os.Remove(filepath.Join(dir, segName(seg))); err != nil {
			return nil, fmt.Errorf("trace: spool repair: %w", err)
		}
		s.recov.DroppedSegments = append(s.recov.DroppedSegments, segName(seg))
	}
	segs = segs[:end]
	s.recov.Frames = s.frames

	// Open the last surviving segment for append, or start the first.
	if len(segs) == 0 {
		if err := s.newSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		path := filepath.Join(dir, segName(last))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		if st.Size() < int64(walHeaderSize) {
			// A segment torn inside its own header holds nothing; rewrite
			// it as fresh.
			f.Close()
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			if err := s.newSegmentLocked(last); err != nil {
				return nil, err
			}
		} else {
			s.f, s.seg, s.size = f, last, st.Size()
		}
	}
	if err := syncDir(dir); err != nil {
		s.f.Close()
		return nil, err
	}
	return s, nil
}

// listSegments returns the segment indices present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		var i int
		if _, err := fmt.Sscanf(e.Name(), "wal-%06d.seg", &i); err == nil && segName(i) == e.Name() {
			segs = append(segs, i)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// walkSegment reads one segment's frames in order, handing each valid
// payload to fn (when non-nil), and returns the offset just past the last
// valid frame, the number of valid frames, and the file's total size. The
// walk stops at the first invalid byte: a torn or foreign header (wrong
// magic or version), a torn or oversized frame, a CRC mismatch. Corruption
// is a verdict, not an error: only I/O failures and fn's own error are
// returned. Payloads are read into one buffer reused across frames, so a
// payload is valid only during its fn call.
func walkSegment(path string, fn func(payload []byte) error) (valid int64, frames uint64, total int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	total = st.Size()

	head := make([]byte, walHeaderSize)
	if _, err := io.ReadFull(f, head); err != nil || string(head[:len(walMagic)]) != walMagic || head[len(walMagic)] != walVersion {
		return 0, 0, total, nil // torn or foreign header: nothing valid
	}
	valid = int64(walHeaderSize)
	var hdr [walFrameHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return valid, frames, total, nil // clean end or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n > MaxFramePayload {
			return valid, frames, total, nil
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return valid, frames, total, nil // torn payload
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return valid, frames, total, nil // corrupt payload
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return valid, frames, total, err
			}
		}
		valid += walFrameHeader + int64(n)
		frames++
	}
}

// newSegmentLocked creates and syncs segment i and makes it active.
func (s *Spool) newSegmentLocked(i int) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(i)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	hdr := append([]byte(walMagic), walVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.f, s.seg, s.size = f, i, int64(walHeaderSize)
	return nil
}

// Recovered reports what OpenSpool repaired.
func (s *Spool) Recovered() SpoolRecovery { return s.recov }

// Dir returns the spool directory.
func (s *Spool) Dir() string { return s.dir }

// FrameCount returns how many valid frames the spool holds.
func (s *Spool) FrameCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

// Append writes one frame and applies the sync policy. An error —
// injected or real — leaves the on-disk log at a whole-frame boundary
// when the partial write can be truncated away, and poisons the spool
// otherwise; either way the frame is reported lost so the caller can
// account for it.
func (s *Spool) Append(payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("trace: spool frame %d exceeds limit %d", len(payload), MaxFramePayload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("trace: spool is closed")
	}
	if s.broken != nil {
		return fmt.Errorf("trace: spool is poisoned by an earlier failure: %w", s.broken)
	}

	frame := int64(walFrameHeader + len(payload))
	if s.size+frame > s.opts.segmentBytes && s.size > int64(walHeaderSize) {
		// Seal the active segment (always synced, whatever the policy:
		// rotation is rare and a sealed segment should be whole) and
		// rotate.
		if err := s.syncLocked(); err != nil {
			s.broken = err
			return err
		}
		if err := s.f.Close(); err != nil {
			s.broken = err
			return err
		}
		if err := s.newSegmentLocked(s.seg + 1); err != nil {
			s.broken = err
			return err
		}
	}

	// The frame is assembled in a buffer the spool owns, so the header and
	// payload reach the file in one write without a fresh copy per append.
	buf := binary.LittleEndian.AppendUint32(s.frame[:0], uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)
	if cap(buf) <= spoolFrameKeep {
		s.frame = buf
	}

	if err := s.writeLocked(buf); err != nil {
		// Cut the torn tail immediately so the spool stays valid for
		// whatever can still read it; if even that fails, poison.
		if terr := s.f.Truncate(s.size); terr != nil {
			s.broken = terr
		}
		return err
	}
	s.size += frame
	s.frames++

	switch s.opts.Sync {
	case SpoolSyncAlways:
		if err := s.syncLocked(); err != nil {
			return err
		}
	case SpoolSyncInterval:
		if time.Since(s.lastSync) >= spoolSyncEvery {
			if err := s.syncLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Spool) writeLocked(buf []byte) error {
	if s.opts.WriteFault != nil {
		if err := s.opts.WriteFault(len(buf)); err != nil {
			return fmt.Errorf("trace: spool write: %w", err)
		}
	}
	_, err := s.f.Write(buf)
	return err
}

func (s *Spool) syncLocked() error {
	if s.opts.SyncFault != nil {
		if err := s.opts.SyncFault(); err != nil {
			return fmt.Errorf("trace: spool sync: %w", err)
		}
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.lastSync = time.Now()
	return nil
}

// Close syncs and closes the active segment. The spool stays readable on
// disk; reopen it with OpenSpool.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncLocked()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Range calls fn for every valid frame payload in append order, reading
// back from the segment files, and stops at the first invalid frame (Open
// already repaired the tail; this tolerates a reader racing a
// not-yet-synced writer). It stops early when fn errors. Appends are held
// off for the duration. A payload is valid only during its fn call — the
// read buffer is reused for the next frame — so fn must copy or decode
// what it keeps.
func (s *Spool) Range(fn func(payload []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if _, _, _, err := walkSegment(filepath.Join(s.dir, segName(seg)), fn); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory so file creations/removals inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadSpool opens (repairing) a trace spool written by SpoolWriter and
// merges its delta traces into one Seq-ordered trace — the recovery
// entry point tesla-trace uses to treat a spool directory like a trace
// file. The merged Dropped total sums every delta's explicit losses; what
// the repair cut away is reported beside the trace, since it is lost
// without a count.
func ReadSpool(dir string) (*Trace, SpoolRecovery, error) {
	sp, err := OpenSpool(dir, SpoolOpts{Sync: SpoolSyncNone})
	if err != nil {
		return nil, SpoolRecovery{}, err
	}
	defer sp.Close()
	rec := sp.Recovered()
	t := &Trace{FormatVersion: Version}
	first := true
	err = sp.Range(func(payload []byte) error {
		delta, err := decodeBinary(payload)
		if err != nil {
			return fmt.Errorf("trace: spool frame: %w", err)
		}
		if first {
			t.Automata = delta.Automata
			first = false
		}
		t.Dropped += delta.Dropped
		t.Events = append(t.Events, delta.Events...)
		return nil
	})
	if err != nil {
		return nil, rec, err
	}
	if first {
		return nil, rec, fmt.Errorf("trace: spool %s holds no recoverable frames", dir)
	}
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].Seq < t.Events[j].Seq })
	return t, rec, nil
}

// SpoolWriter streams a live Recorder into a Spool as delta traces: each
// flush (Flusher) appends the binary encoding of the events recorded
// since the previous flush as one WAL frame. Under SpoolSyncAlways a
// SIGKILL loses at most the events not yet appended: one flush interval,
// plus whatever accumulated while an in-flight flush was still encoding
// (on a saturated machine flushes batch up their backlog rather than fall
// behind silently). Everything older is durable, and ReadSpool recovers
// it as a verbatim prefix of the run — exact as long as the recorder
// rings did not overwrite between cuts; overwrites are counted in each
// delta's Dropped, never lost silently.
//
// Each flush encodes into the Flusher's byte buffer (Recorder.AppendCut),
// and Spool.Append copies the frame into the spool's own buffer, so a
// steady flush cadence reuses its memory instead of allocating per event.
type SpoolWriter struct {
	Flusher
	spool *Spool
	// lostFrames/lostEvents count deltas a failed append discarded: the
	// events are gone from the spool, but never silently. Flusher.mu
	// guards them.
	lostFrames uint64
	lostEvents uint64
}

// NewSpoolWriter pairs a recorder with a spool; Start defaults to a 25ms
// flush interval.
func NewSpoolWriter(rec *Recorder, spool *Spool) *SpoolWriter {
	w := &SpoolWriter{spool: spool}
	w.rec, w.interval, w.send = rec, 25*time.Millisecond, w.append
	return w
}

// append appends one encoded delta to the spool.
func (w *SpoolWriter) append(delta []byte, events, _ uint64) error {
	if err := w.spool.Append(delta); err != nil {
		w.lostFrames++
		w.lostEvents += events
		return err
	}
	return nil
}

// Lost reports deltas discarded by failed appends.
func (w *SpoolWriter) Lost() (frames, events uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lostFrames, w.lostEvents
}
