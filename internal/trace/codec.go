package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"tesla/internal/core"
)

// Trace files come in two interchangeable encodings sharing one format
// version: a compact binary form (the default — varint fields, delta-coded
// sequence numbers, interned strings) and a JSON form for inspection and
// toolability. Read distinguishes them by the first byte; both encoders
// write Version and both decoders reject any other version.

// magic opens every binary trace file.
const magic = "TESLATRC"

// maxTraceEvents caps what a decoder will allocate for one trace,
// protecting against corrupt or hostile length prefixes.
const maxTraceEvents = 1 << 26

// Write encodes the trace in compact binary form with one Write call to w.
// Like AppendBinary, it encodes synchronously and keeps nothing of t.
func Write(w io.Writer, t *Trace) error {
	_, err := w.Write(AppendBinary(nil, t))
	return err
}

// AppendBinary appends the compact binary encoding of t to dst and returns
// the extended slice. It shares its encoder with Recorder.AppendCut, which
// encodes a recorder's cut straight from its rings for the WAL trace spool
// and the agg wire: a caller that owns a reusable buffer encodes into it,
// with no intermediate copy. It keeps nothing of t, so the caller may
// reuse t.Events as soon as it returns.
func AppendBinary(dst []byte, t *Trace) []byte {
	enc := newEncoder(dst)
	enc.header(t.Dropped, t.Automata, uint64(len(t.Events)))
	for i := range t.Events {
		enc.event(&t.Events[i])
	}
	return enc.finish()
}

// encoderPool recycles encoders so a steady stream of delta encodes reuses
// one string-interning table instead of building a map per trace.
var encoderPool = sync.Pool{New: func() any { return &encoder{strings: map[string]uint64{}} }}

// maxPooledStrings caps the interning table a pooled encoder keeps: one
// trace with an unusually large vocabulary must not pin it.
const maxPooledStrings = 1024

// newEncoder takes a pooled encoder that appends one binary trace to dst,
// starting with the magic. Write the header, then each event, then call
// finish: AppendBinary encodes a Trace that way and Recorder.AppendCut a
// cut straight from its rings, so both produce the same bytes.
func newEncoder(dst []byte) *encoder {
	enc := encoderPool.Get().(*encoder)
	enc.buf = append(dst, magic...)
	return enc
}

// finish returns the encoded bytes and puts the encoder back in the pool.
func (enc *encoder) finish() []byte {
	dst := enc.buf
	enc.buf = nil
	if len(enc.strings) > maxPooledStrings {
		enc.strings = map[string]uint64{}
	} else {
		clear(enc.strings)
	}
	encoderPool.Put(enc)
	return dst
}

// header writes everything before the events; nEvents events must follow.
func (enc *encoder) header(dropped uint64, automata []string, nEvents uint64) {
	enc.uvarint(uint64(Version))
	enc.uvarint(dropped)
	enc.uvarint(uint64(len(automata)))
	for _, name := range automata {
		enc.str(name)
	}
	enc.uvarint(nEvents)
	enc.prevSeq = 0
}

// event writes one event through the writer for its payload kind.
func (enc *encoder) event(ev *Event) {
	if ev.Kind == KindProgram {
		p := progSlotOf(ev)
		enc.program(ev.Thread, &p)
		return
	}
	l := lifeSlotOf(ev)
	enc.lifecycle(ev.Thread, ev.Time, &l)
}

// head writes the fields every event starts with; Seq is coded as the
// delta from the previous event's.
func (enc *encoder) head(seq uint64, thread int, kind Kind, time int64) {
	enc.uvarint(seq - enc.prevSeq)
	enc.prevSeq = seq
	enc.varint(int64(thread))
	enc.byte(byte(kind))
	enc.varint(time)
}

// program writes a KindProgram event. It is the one writer of the program
// payload, whether it comes from a Trace (event) or a thread ring's slot
// (Recorder.AppendCut).
func (enc *encoder) program(thread int, p *progSlot) {
	enc.head(p.Seq, thread, KindProgram, p.Time)
	enc.byte(byte(p.Prog))
	enc.str(p.Fn)
	enc.str(p.Field)
	enc.varint(int64(p.Op))
	enc.varint(int64(p.Auto))
	enc.varint(int64(p.Sym))
	enc.varint(int64(p.Slot))
	if p.HasRet {
		enc.byte(1)
		enc.varint(int64(p.Ret))
	} else {
		enc.byte(0)
	}
	enc.uvarint(uint64(len(p.Vals)))
	for _, v := range p.Vals {
		enc.varint(int64(v))
	}
	enc.uvarint(uint64(len(p.InStack)))
	for _, id := range p.InStack {
		enc.varint(int64(id))
	}
}

// lifecycle writes a lifecycle event, the one writer of that payload
// whether it comes from a Trace or the lifecycle ring (whose events carry
// thread -1 and time 0).
func (enc *encoder) lifecycle(thread int, time int64, l *lifeSlot) {
	enc.head(l.Seq, thread, l.Kind, time)
	enc.str(l.Class)
	enc.str(l.Symbol)
	enc.key(l.Key)
	enc.key(l.ParentKey)
	enc.uvarint(uint64(l.From))
	enc.uvarint(uint64(l.To))
	enc.uvarint(uint64(l.State))
	enc.varint(int64(l.Verdict))
	if l.Kind == KindQuarantine {
		// Trailing byte for the newest kind only, so traces
		// without quarantine events keep the original layout.
		if l.On {
			enc.byte(1)
		} else {
			enc.byte(0)
		}
	}
}

// WriteJSON encodes the trace as indented JSON.
func WriteJSON(w io.Writer, t *Trace) error {
	t.FormatVersion = Version
	e := json.NewEncoder(w)
	e.SetIndent("", "  ")
	return e.Encode(t)
}

// Read decodes a trace in either encoding, sniffing the first byte: JSON
// traces start with '{', binary traces with the magic string.
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading trace: %w", err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("trace: empty input: %w", io.EOF)
	}
	if data[0] == '{' {
		return readJSON(bytes.NewReader(data))
	}
	return decodeBinary(data)
}

func readJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: bad JSON trace: %w", err)
	}
	if t.FormatVersion != Version {
		return nil, versionError(uint64(t.FormatVersion))
	}
	return &t, nil
}

// decodeBinary loads a whole binary trace held in b. Every event owns its
// slices; the trace keeps nothing of b.
func decodeBinary(b []byte) (*Trace, error) {
	d := decoder{buf: b}
	h, err := decodeHeader(&d)
	if err != nil {
		return nil, err
	}
	t := &Trace{FormatVersion: Version, Automata: h.automata, Dropped: h.dropped}
	for i := uint64(0); i < h.nEvents; i++ {
		var ev Event
		if err := decodeEvent(&d, &ev); err != nil {
			return nil, err
		}
		t.Events = append(t.Events, ev)
	}
	return t, nil
}

// encoder appends binary output to buf. Strings are interned: the first
// occurrence writes ref == table length followed by the bytes; later
// occurrences write only the ref.
type encoder struct {
	buf     []byte
	strings map[string]uint64
	prevSeq uint64
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) str(s string) {
	if ref, ok := e.strings[s]; ok {
		e.uvarint(ref)
		return
	}
	ref := uint64(len(e.strings))
	e.strings[s] = ref
	e.uvarint(ref)
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// key writes the bound mask then only the bound slots' values.
func (e *encoder) key(k core.Key) {
	e.uvarint(uint64(k.Mask))
	for i := 0; i < core.KeySize; i++ {
		if k.Bound(i) {
			e.varint(int64(k.Data[i]))
		}
	}
}

// decoder reads the binary format from buf, starting at off. It is the
// one reader of the format: a caller holding the bytes decodes straight
// from them, and StreamDecoder feeds it from a buffer it refills. Running
// past the end of buf sets err to errShort, which StreamDecoder answers
// with a refill and a retry, and everyone else reports as truncation.
//
// Strings are copied out of buf into the interning table, so nothing
// decoded aliases buf. Vals and InStack decode into the vals and inStack
// arena. With arena set an event keeps slices of it, valid until the
// arena is reset; otherwise each event gets its own copies.
type decoder struct {
	buf     []byte
	off     int
	strings []string
	prevSeq uint64
	err     error

	arena   bool
	vals    []core.Value
	inStack []int
}

// errShort is the decoder's end-of-input: the bytes so far are a prefix
// of something longer.
var errShort = io.ErrUnexpectedEOF

// errOverflow reports a varint longer than 64 bits.
var errOverflow = errors.New("varint overflows a 64-bit integer")

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = errShort
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// varintErr maps a binary.Uvarint/Varint size of n <= 0 to the decoder's
// error: 0 is too few bytes, negative is overflow.
func varintErr(n int) error {
	if n == 0 {
		return errShort
	}
	return errOverflow
}

// uvarint and varint decode a one-byte value, the common case, inline and
// leave longer ones to encoding/binary. The fast path does not look at
// err: the first error sticks, and whatever is decoded after it is
// discarded with the event.
func (d *decoder) uvarint() uint64 {
	if d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return uint64(b)
		}
	}
	return d.uvarintSlow()
}

func (d *decoder) uvarintSlow() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = varintErr(n)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return int64(b>>1) ^ -int64(b&1) // zigzag, as binary.Varint
		}
	}
	return d.varintSlow()
}

func (d *decoder) varintSlow() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = varintErr(n)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) str() string {
	ref := d.uvarint()
	if d.err != nil {
		return ""
	}
	if ref < uint64(len(d.strings)) {
		return d.strings[ref]
	}
	if ref != uint64(len(d.strings)) {
		d.err = fmt.Errorf("string ref %d out of order (table has %d)", ref, len(d.strings))
		return ""
	}
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	if uint64(len(d.buf)-d.off) < n {
		d.err = errShort
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	d.strings = append(d.strings, s)
	return s
}

func (d *decoder) key() core.Key {
	var k core.Key
	mask := d.uvarint()
	if d.err != nil {
		return k
	}
	if mask >= 1<<core.KeySize {
		d.err = fmt.Errorf("key mask %#x exceeds KeySize=%d", mask, core.KeySize)
		return k
	}
	k.Mask = uint32(mask)
	for i := 0; i < bits.Len32(k.Mask); i++ {
		if k.Bound(i) {
			k.Data[i] = core.Value(d.varint())
		}
	}
	return k
}
