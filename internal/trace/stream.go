package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

// This file is the streaming half of the codec: an incremental event
// decoder over the binary trace format, and a length-prefixed frame layer
// for shipping traces over a connection. Read loads a whole trace into
// memory, which is right for replay and shrinking; an aggregation server
// ingesting thousands of producer streams must not hold more than one
// event (plus one frame) per connection, and `tesla-trace show` on a
// multi-gigabyte trace should print it in constant memory. Both sit on
// StreamDecoder; the tesla-agg wire protocol additionally wraps each
// encoded trace in a Frame so a connection can carry many delta traces
// interleaved with control messages.

// header is what a binary trace declares before its events.
type header struct {
	dropped  uint64
	automata []string
	nEvents  uint64
}

// Automata returns the automata names recorded in the header.
func (h *header) Automata() []string { return h.automata }

// Dropped returns the producer-side ring-drop count from the header.
func (h *header) Dropped() uint64 { return h.dropped }

// Len returns the event count declared by the header.
func (h *header) Len() int { return int(h.nEvents) }

// errBadMagic is one value, not formatted per call: a Decoder reset to
// nil to let go of its input takes this path, and must allocate nothing.
var errBadMagic = errors.New("trace: not a trace file (bad magic)")

// decodeHeader decodes the magic, format version, drop count, automata
// names and event count. On error d is back where it started, so a
// StreamDecoder that ran out of bytes can refill and decode again.
func decodeHeader(d *decoder) (header, error) {
	var h header
	if len(d.buf)-d.off < len(magic) {
		d.err = errShort
		return h, errBadMagic
	}
	if string(d.buf[d.off:d.off+len(magic)]) != magic {
		return h, errBadMagic
	}
	start := d.off
	d.off += len(magic)
	fail := func(err error) (header, error) {
		d.off, d.strings = start, d.strings[:0]
		return header{}, err
	}
	if v := d.uvarint(); d.err == nil && v != Version {
		return fail(versionError(v))
	}
	h.dropped = d.uvarint()
	nAutos := d.uvarint()
	if d.err == nil && nAutos > maxTraceEvents {
		return fail(fmt.Errorf("trace: implausible automata count %d", nAutos))
	}
	for i := uint64(0); i < nAutos && d.err == nil; i++ {
		h.automata = append(h.automata, d.str())
	}
	h.nEvents = d.uvarint()
	if d.err == nil && h.nEvents > maxTraceEvents {
		return fail(fmt.Errorf("trace: implausible event count %d", h.nEvents))
	}
	if d.err != nil {
		return fail(fmt.Errorf("trace: truncated or corrupt trace: %w", d.err))
	}
	return h, nil
}

// versionError is the shared actionable version-mismatch diagnostic: it
// names both versions and what to do about the gap. Producers on the agg
// wire protocol are rejected at the hello frame instead (with the
// producing tool named), so this is only reached for trace files.
func versionError(got uint64) error {
	return fmt.Errorf("trace: file is format version %d but this build reads version %d — re-record it with a tesla-run matching this build, or convert it with the tesla-trace that wrote it", got, Version)
}

// Decoder decodes a binary trace held in memory, one event at a time,
// into an event the caller reuses. It is the decoder for callers that
// already hold the bytes — the fleet server's frame apply, the spool's
// header reads — and it is built for reuse: Reset keeps the interning
// table's and the arena's memory for the next trace. The zero value is
// ready for Reset.
type Decoder struct {
	header
	d    decoder
	read uint64
}

// maxArena caps the Vals/InStack arena a reused Decoder keeps across
// Resets: one trace with unusually long value lists must not pin it.
const maxArena = 1 << 16

// Reset starts decoding b: it reads the header and positions the decoder
// at the first event. The decoder holds b until the next Reset; Reset(nil)
// lets go of it, and of the previous trace's strings.
func (dec *Decoder) Reset(b []byte) error {
	d := &dec.d
	clear(d.strings)
	if cap(d.vals) > maxArena || cap(d.inStack) > maxArena {
		d.vals, d.inStack = nil, nil
	}
	*d = decoder{buf: b, strings: d.strings[:0], arena: true, vals: d.vals[:0], inStack: d.inStack[:0]}
	dec.read = 0
	h, err := decodeHeader(d)
	dec.header = h
	if err != nil {
		dec.nEvents = 0
	}
	return err
}

// Next decodes the next event into ev, overwriting all of it. It returns
// io.EOF after the last declared event, and a descriptive error on
// truncation or corruption, after which it yields nothing more. ev's
// strings are its own; its Vals and InStack are slices of the decoder's
// arena, valid until the next Reset.
func (dec *Decoder) Next(ev *Event) error {
	if dec.read >= dec.nEvents {
		return io.EOF
	}
	if err := decodeEvent(&dec.d, ev); err != nil {
		dec.read = dec.nEvents // poison: no further progress
		return err
	}
	dec.read++
	return nil
}

// StreamDecoder decodes a binary trace incrementally from a reader: the
// header (format version, drop count, automata names) is read at
// construction, then Next yields one event at a time. It decodes with the
// same function as Decoder, from a buffer it refills: an event that runs
// past the buffered bytes is decoded again once more are read. Memory is
// bounded by the larger of the buffer and the largest single event, plus
// the interned string table, not by the trace length.
type StreamDecoder struct {
	header
	d    decoder
	r    io.Reader
	buf  []byte
	rerr error // the reader's error, once it returned one
	read uint64
}

// streamBuf is StreamDecoder's initial buffer: it grows only when one
// event is larger.
const streamBuf = 4096

// NewStreamDecoder reads the binary header from r and returns a decoder
// positioned at the first event. It rejects bad magic, mismatched format
// versions and implausible counts exactly like Read.
func NewStreamDecoder(r io.Reader) (*StreamDecoder, error) {
	sd := &StreamDecoder{r: r, buf: make([]byte, streamBuf)}
	sd.d.buf = sd.buf[:0]
	for {
		h, err := decodeHeader(&sd.d)
		if err == nil {
			sd.header = h
			return sd, nil
		}
		if !sd.refill() {
			return nil, sd.final(err)
		}
	}
}

// Next decodes and returns the next event. It returns io.EOF after the
// last declared event, and a descriptive error on truncation or
// corruption.
func (sd *StreamDecoder) Next() (Event, error) {
	if sd.read >= sd.nEvents {
		return Event{}, io.EOF
	}
	var ev Event
	for {
		err := decodeEvent(&sd.d, &ev)
		if err == nil {
			break
		}
		if !sd.refill() {
			sd.read = sd.nEvents // poison: no further progress
			return Event{}, sd.final(err)
		}
	}
	sd.read++
	return ev, nil
}

// refill reports whether the step that just failed ran out of buffered
// bytes while the reader may hold more. If so it slides the unread bytes
// to the front of the buffer (doubling it when they already fill it),
// reads once more and clears the error, and the caller decodes again.
func (sd *StreamDecoder) refill() bool {
	d := &sd.d
	if d.err != errShort || sd.rerr != nil {
		return false
	}
	rest := copy(sd.buf, d.buf[d.off:])
	if rest == len(sd.buf) {
		sd.buf = append(sd.buf, make([]byte, len(sd.buf))...)
	}
	n, err := io.ReadAtLeast(sd.r, sd.buf[rest:], 1)
	sd.rerr = err
	d.buf, d.off, d.err = sd.buf[:rest+n], 0, nil
	return true
}

// final is the error a failed step reports once no refill can help: its
// own, unless it ran out of bytes because the reader failed with
// something other than end of input.
func (sd *StreamDecoder) final(err error) error {
	if sd.d.err == errShort && sd.rerr != nil && sd.rerr != io.EOF {
		return fmt.Errorf("trace: reading trace: %w", sd.rerr)
	}
	return err
}

// decodeEvent decodes one event record into ev, overwriting all of it.
// It is the single event-wire-format authority, behind Decoder,
// StreamDecoder and Read. The sequence number is delta-coded against the
// previous event's; on error d is back at the event's first byte with its
// string table, arena and sequence as they were, so StreamDecoder can
// refill and decode the event again.
func decodeEvent(d *decoder, ev *Event) error {
	start, nStr, nVals, nStack := d.off, len(d.strings), len(d.vals), len(d.inStack)
	if err := decodeEventBody(d, ev); err != nil {
		d.off, d.strings, d.vals, d.inStack = start, d.strings[:nStr], d.vals[:nVals], d.inStack[:nStack]
		return err
	}
	d.prevSeq = ev.Seq
	if !d.arena {
		ev.Vals, ev.InStack = slices.Clone(ev.Vals), slices.Clone(ev.InStack)
		d.vals, d.inStack = d.vals[:0], d.inStack[:0]
	}
	return nil
}

// decodeEventBody is decodeEvent without the rollback.
func decodeEventBody(d *decoder, ev *Event) error {
	*ev = Event{}
	ev.Seq = d.prevSeq + d.uvarint()
	ev.Thread = int(d.varint())
	ev.Kind = Kind(d.byte())
	ev.Time = d.varint()
	switch ev.Kind {
	case KindProgram:
		if err := decodeProgram(d, ev); err != nil {
			return err
		}
	case KindInit, KindClone, KindTransition, KindAccept, KindFail, KindOverflow, KindEvict, KindQuarantine:
		ev.Class = d.str()
		ev.Symbol = d.str()
		ev.Key = d.key()
		ev.ParentKey = d.key()
		ev.From = uint32(d.uvarint())
		ev.To = uint32(d.uvarint())
		ev.State = uint32(d.uvarint())
		ev.Verdict = core.VerdictKind(d.varint())
		if ev.Kind == KindQuarantine {
			ev.On = d.byte() != 0
		}
	default:
		if d.err != nil {
			break
		}
		return fmt.Errorf("trace: unknown event kind %d", ev.Kind)
	}
	if d.err != nil {
		return fmt.Errorf("trace: truncated or corrupt trace: %w", d.err)
	}
	return nil
}

// decodeProgram decodes the KindProgram payload into ev.
func decodeProgram(d *decoder, ev *Event) error {
	ev.Prog = monitor.ProgKind(d.byte())
	ev.Fn = d.str()
	ev.Field = d.str()
	ev.Op = spec.AssignOp(d.varint())
	ev.Auto = int(d.varint())
	ev.Sym = int(d.varint())
	ev.Slot = int(d.varint())
	if d.byte() != 0 {
		ev.HasRet = true
		ev.Ret = core.Value(d.varint())
	}
	// Both lists grow element-wise in the arena: a corrupt length prefix
	// costs at most the bytes actually present.
	if n := d.uvarint(); n > 0 && d.err == nil {
		if n > maxTraceEvents {
			return fmt.Errorf("trace: implausible value count %d", n)
		}
		at := len(d.vals)
		for j := uint64(0); j < n && d.err == nil; j++ {
			d.vals = append(d.vals, core.Value(d.varint()))
		}
		ev.Vals = d.vals[at:len(d.vals):len(d.vals)]
	}
	if n := d.uvarint(); n > 0 && d.err == nil {
		if n > maxTraceEvents {
			return fmt.Errorf("trace: implausible instack count %d", n)
		}
		at := len(d.inStack)
		for j := uint64(0); j < n && d.err == nil; j++ {
			d.inStack = append(d.inStack, int(d.varint()))
		}
		ev.InStack = d.inStack[at:len(d.inStack):len(d.inStack)]
	}
	return nil
}

// Frame layer. A frame is a kind byte, a uvarint payload length and the
// payload bytes. The tesla-agg wire protocol is a stream of frames after
// an 8-byte stream magic; payload schemas belong to internal/agg — this
// layer only moves opaque, bounded payloads.

// MaxFramePayload bounds a single frame so a corrupt or hostile length
// prefix cannot make a reader allocate unboundedly.
const MaxFramePayload = 64 << 20

// FrameWriter writes length-prefixed frames. It buffers each frame into
// one Write call so concurrent readers never observe a torn header.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a frame writer over w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Frame writes one frame.
func (fw *FrameWriter) Frame(kind byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("trace: frame payload %d exceeds limit %d", len(payload), MaxFramePayload)
	}
	fw.buf = fw.buf[:0]
	fw.buf = append(fw.buf, kind)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(payload)))
	fw.buf = append(fw.buf, payload...)
	_, err := fw.w.Write(fw.buf)
	return err
}

// FrameReader reads length-prefixed frames incrementally.
type FrameReader struct {
	r *bufio.Reader
}

// NewFrameReader returns a frame reader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &FrameReader{r: br}
}

// Next reads one frame into a new payload buffer. A clean end-of-stream at
// a frame boundary returns io.EOF; truncation inside a frame returns
// io.ErrUnexpectedEOF (wrapped), so callers can tell an orderly close from
// a cut connection.
func (fr *FrameReader) Next() (kind byte, payload []byte, err error) {
	return fr.NextInto(nil)
}

// NextInto is Next reading the payload into buf's backing array when it
// is large enough, so a reader that gets each payload back once it is
// done with it reads a stream of frames without a buffer per frame. A
// buf too small for the frame is replaced by one at least twice its
// capacity, so a stream of slowly growing frames reallocates a recycled
// buffer a logarithmic number of times, not once per larger frame.
func (fr *FrameReader) NextInto(buf []byte) (kind byte, payload []byte, err error) {
	kind, err = fr.r.ReadByte()
	if err != nil {
		return 0, nil, err // io.EOF here is a clean boundary
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return 0, nil, fmt.Errorf("trace: truncated frame header: %w", noEOF(err))
	}
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("trace: implausible frame length %d", n)
	}
	if buf == nil || uint64(cap(buf)) < n {
		buf = make([]byte, n, min(max(int(n), 2*cap(buf)), MaxFramePayload))
	}
	payload = buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, fmt.Errorf("trace: truncated frame payload: %w", noEOF(err))
	}
	return kind, payload, nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a frame,
// end-of-input is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
