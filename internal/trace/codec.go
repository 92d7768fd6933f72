package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
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
// the extended slice. It is the one encoder behind Write, the WAL trace
// spool and the agg wire: a caller that owns a reusable buffer encodes a
// delta straight into it, with no intermediate copy. It keeps nothing of t,
// so the caller may reuse t.Events as soon as it returns.
func AppendBinary(dst []byte, t *Trace) []byte {
	enc := encoderPool.Get().(*encoder)
	enc.buf = append(dst, magic...)
	enc.trace(t)
	dst = enc.buf
	enc.buf = nil
	if len(enc.strings) > maxPooledStrings {
		enc.strings = map[string]uint64{}
	} else {
		clear(enc.strings)
	}
	encoderPool.Put(enc)
	return dst
}

// encoderPool recycles encoders so a steady stream of delta encodes reuses
// one string-interning table instead of building a map per trace.
var encoderPool = sync.Pool{New: func() any { return &encoder{strings: map[string]uint64{}} }}

// maxPooledStrings caps the interning table a pooled encoder keeps: one
// trace with an unusually large vocabulary must not pin it.
const maxPooledStrings = 1024

func (enc *encoder) trace(t *Trace) {
	enc.uvarint(uint64(Version))
	enc.uvarint(t.Dropped)
	enc.uvarint(uint64(len(t.Automata)))
	for _, name := range t.Automata {
		enc.str(name)
	}
	enc.uvarint(uint64(len(t.Events)))
	var prevSeq uint64
	for i := range t.Events {
		ev := &t.Events[i]
		enc.uvarint(ev.Seq - prevSeq)
		prevSeq = ev.Seq
		enc.varint(int64(ev.Thread))
		enc.byte(byte(ev.Kind))
		enc.varint(ev.Time)
		switch ev.Kind {
		case KindProgram:
			enc.byte(byte(ev.Prog))
			enc.str(ev.Fn)
			enc.str(ev.Field)
			enc.varint(int64(ev.Op))
			enc.varint(int64(ev.Auto))
			enc.varint(int64(ev.Sym))
			enc.varint(int64(ev.Slot))
			if ev.HasRet {
				enc.byte(1)
				enc.varint(int64(ev.Ret))
			} else {
				enc.byte(0)
			}
			enc.uvarint(uint64(len(ev.Vals)))
			for _, v := range ev.Vals {
				enc.varint(int64(v))
			}
			enc.uvarint(uint64(len(ev.InStack)))
			for _, id := range ev.InStack {
				enc.varint(int64(id))
			}
		default:
			enc.str(ev.Class)
			enc.str(ev.Symbol)
			enc.key(ev.Key)
			enc.key(ev.ParentKey)
			enc.uvarint(uint64(ev.From))
			enc.uvarint(uint64(ev.To))
			enc.uvarint(uint64(ev.State))
			enc.varint(int64(ev.Verdict))
			if ev.Kind == KindQuarantine {
				// Trailing byte for the newest kind only, so traces
				// without quarantine events keep the original layout.
				if ev.On {
					enc.byte(1)
				} else {
					enc.byte(0)
				}
			}
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
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("trace: empty input: %w", err)
	}
	if first[0] == '{' {
		return readJSON(br)
	}
	return readBinary(br)
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

// readBinary loads a whole binary trace through the incremental
// StreamDecoder (stream.go), which owns the wire format.
func readBinary(br *bufio.Reader) (*Trace, error) {
	sd, err := NewStreamDecoder(br)
	if err != nil {
		return nil, err
	}
	t := &Trace{
		FormatVersion: Version,
		Automata:      sd.Automata(),
		Dropped:       sd.Dropped(),
	}
	for {
		ev, err := sd.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, ev)
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// encoder appends binary output to buf. Strings are interned: the first
// occurrence writes ref == table length followed by the bytes; later
// occurrences write only the ref.
type encoder struct {
	buf     []byte
	strings map[string]uint64
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

type decoder struct {
	r       *bufio.Reader
	strings []string
	err     error
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	d.err = err
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.err = err
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	d.err = err
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
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return ""
	}
	s := string(buf)
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
