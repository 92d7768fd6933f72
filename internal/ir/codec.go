package ir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// The binary module codec. It is the artifact format of the build graph's
// cache (internal/build): the bytes are both what the disk cache stores and
// what downstream cache keys hash, so the encoding is a pure function of
// the module's content — never of pointer identity or allocation order.
//
//	module    = str(Name) uvarint(n) structRef*n uvarint(n) global*n uvarint(n) func*n
//	structRef = uvarint(0)                   nil
//	          | uvarint(1) structDef         first use: interned at the next index
//	          | uvarint(k+2)                 the k-th interned struct type
//	structDef = str(Name) uvarint(n) (str(Name) varint(Offset))*n
//	global    = str(Name) varint(Init)
//	func      = str(Name) varint(NParams) varint(NRegs) uvarint(n) block*n
//	block     = str(Name) uvarint(n) instr*n
//	instr     = varint(Op) varint(Dst) varint(X) varint(Y) varint(Imm) str(Sym)
//	            structRef varint(Field) varint(Assign) uvarint(n) varint(arg)*n
//	            varint(Blk1) varint(Blk2) byte(HasX) varint(Line)
//	str       = uvarint(len) bytes
//
// Struct types are interned by content, in first-use order (Module.Structs
// first, then instruction references), so decoding gives every use of one
// layout the same pointer. An empty slice encodes like a nil one and
// decodes as nil. The decoder accepts only the encoder's exact output —
// minimal varints, 0/1 bools, no trailing garbage inside the module — so
// any module it returns re-encodes to the bytes it consumed.

// AppendBinary appends the module's encoding to dst and returns the
// extended slice. In steady state, appending into a buffer with enough
// capacity allocates nothing: the interning table lives in a pooled
// encoder.
func (m *Module) AppendBinary(dst []byte) []byte {
	e := encoders.Get().(*encoder)
	defer e.release()
	e.buf = dst
	e.str(m.Name)
	e.uvarint(uint64(len(m.Structs)))
	for _, s := range m.Structs {
		e.structRef(s)
	}
	e.uvarint(uint64(len(m.Globals)))
	for _, g := range m.Globals {
		e.str(g.Name)
		e.varint(g.Init)
	}
	e.uvarint(uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		e.str(f.Name)
		e.varint(int64(f.NParams))
		e.varint(int64(f.NRegs))
		e.uvarint(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.str(b.Name)
			e.uvarint(uint64(len(b.Instrs)))
			for i := range b.Instrs {
				e.instr(&b.Instrs[i])
			}
		}
	}
	return e.buf
}

type encoder struct {
	buf     []byte
	structs []*StructType // interned layouts, in first-use order
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// release drops the encoder's references to the caller's memory and
// returns it to the pool with its table's capacity.
func (e *encoder) release() {
	clear(e.structs)
	*e = encoder{structs: e.structs[:0]}
	encoders.Put(e)
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) structRef(s *StructType) {
	if s == nil {
		e.uvarint(0)
		return
	}
	for i, t := range e.structs {
		if sameLayout(s, t) {
			e.uvarint(uint64(i) + 2)
			return
		}
	}
	e.structs = append(e.structs, s)
	e.uvarint(1)
	e.str(s.Name)
	e.uvarint(uint64(len(s.Fields)))
	for _, f := range s.Fields {
		e.str(f.Name)
		e.varint(int64(f.Offset))
	}
}

func sameLayout(a, b *StructType) bool {
	if a == b {
		return true
	}
	if a.Name != b.Name || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	return true
}

func (e *encoder) instr(in *Instr) {
	e.varint(int64(in.Op))
	e.varint(int64(in.Dst))
	e.varint(int64(in.X))
	e.varint(int64(in.Y))
	e.varint(in.Imm)
	e.str(in.Sym)
	e.structRef(in.Struct)
	e.varint(int64(in.Field))
	e.varint(int64(in.Assign))
	e.uvarint(uint64(len(in.Args)))
	for _, a := range in.Args {
		e.varint(int64(a))
	}
	e.varint(int64(in.Blk1))
	e.varint(int64(in.Blk2))
	if in.HasX {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
	e.varint(int64(in.Line))
}

// Minimum encoded sizes, which bound every count against the bytes left:
// a corrupt count can never make the decoder allocate more elements than
// its input could hold.
const (
	minStructRef = 1
	minField     = 2
	minGlobal    = 2
	minFunc      = 4
	minBlock     = 2
	minInstr     = 14
	minArg       = 1
)

var errTruncated = errors.New("ir: decode: truncated module")

// DecodeModule decodes one module from the front of data and returns it
// with the bytes that follow it. It rejects anything AppendBinary would
// not have produced, including every strict prefix of a valid encoding.
func DecodeModule(data []byte) (*Module, []byte, error) {
	d := decoder{data: data}
	m := &Module{Name: d.str()}
	if n := d.count(minStructRef); n > 0 {
		m.Structs = make([]*StructType, n)
		for i := range m.Structs {
			m.Structs[i] = d.structRef()
		}
	}
	if n := d.count(minGlobal); n > 0 {
		m.Globals = make([]*Global, n)
		for i := range m.Globals {
			m.Globals[i] = &Global{Name: d.str(), Init: d.varint()}
		}
	}
	if n := d.count(minFunc); n > 0 {
		m.Funcs = make([]*Func, n)
		for i := range m.Funcs {
			m.Funcs[i] = d.fn()
		}
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return m, d.data, nil
}

// decoder reads from data, advancing it. The first error sticks: every
// later read returns a zero value and every count returns 0, so the
// decode loops wind down without further checks.
type decoder struct {
	data    []byte
	err     error
	structs []*StructType
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.data = nil
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	switch {
	case n == 0:
		d.fail(errTruncated)
		return 0
	case n < 0:
		d.fail(errors.New("ir: decode: varint overflows 64 bits"))
		return 0
	case n > 1 && d.data[n-1] == 0:
		d.fail(errors.New("ir: decode: non-minimal varint"))
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a signed varint that must fit the platform's int.
func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("ir: decode: %d overflows int", v))
		return 0
	}
	return int(v)
}

// count reads an element count and checks that the remaining bytes can
// hold that many elements of at least min bytes each.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.data)/min) {
		d.fail(errTruncated)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1)
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

func (d *decoder) structRef() *StructType {
	ref := d.uvarint()
	switch {
	case d.err != nil || ref == 0:
		return nil
	case ref == 1:
		s := &StructType{Name: d.str()}
		if n := d.count(minField); n > 0 {
			s.Fields = make([]Field, n)
			for i := range s.Fields {
				s.Fields[i] = Field{Name: d.str(), Offset: d.int()}
			}
		}
		// A layout equal to an earlier one would have been encoded as a
		// back-reference; accepting it would break re-encoding.
		for _, t := range d.structs {
			if d.err == nil && sameLayout(s, t) {
				d.fail(errors.New("ir: decode: struct layout interned twice"))
			}
		}
		d.structs = append(d.structs, s)
		return s
	case ref-2 < uint64(len(d.structs)):
		return d.structs[ref-2]
	}
	d.fail(fmt.Errorf("ir: decode: struct reference %d out of range", ref-2))
	return nil
}

func (d *decoder) fn() *Func {
	f := &Func{Name: d.str(), NParams: d.int(), NRegs: d.int()}
	if n := d.count(minBlock); n > 0 {
		f.Blocks = make([]*Block, n)
		for i := range f.Blocks {
			b := &Block{Name: d.str()}
			if n := d.count(minInstr); n > 0 {
				b.Instrs = make([]Instr, n)
				for j := range b.Instrs {
					d.instr(&b.Instrs[j])
				}
			}
			f.Blocks[i] = b
		}
	}
	return f
}

func (d *decoder) instr(in *Instr) {
	in.Op = Opcode(d.int())
	in.Dst = d.int()
	in.X = d.int()
	in.Y = d.int()
	in.Imm = d.varint()
	in.Sym = d.str()
	in.Struct = d.structRef()
	in.Field = d.int()
	in.Assign = AssignKind(d.int())
	if n := d.count(minArg); n > 0 {
		in.Args = make([]int, n)
		for i := range in.Args {
			in.Args[i] = d.int()
		}
	}
	in.Blk1 = d.int()
	in.Blk2 = d.int()
	switch {
	case d.err != nil:
	case len(d.data) == 0:
		d.fail(errTruncated)
	case d.data[0] > 1:
		d.fail(fmt.Errorf("ir: decode: bool byte %d", d.data[0]))
	default:
		in.HasX = d.data[0] == 1
		d.data = d.data[1:]
	}
	in.Line = d.int()
}
