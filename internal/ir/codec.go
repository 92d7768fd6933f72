package ir

import (
	"crypto/sha256"
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
//
// A module's content sum (ContentSum) hashes the same content in two
// levels, so a function hashed once need not be hashed again:
//
//	sum     = SHA-256( str(Name) uvarint(n) structDef'*n uvarint(n) global*n
//	                   uvarint(n) funcSum*n tail )
//	funcSum = SHA-256( func' )
//
// where structDef' and func' write every struct layout inline (FuncSum),
// and tail is the caller's bytes that follow the module in its artifact.

// AppendBinary appends the module's encoding to dst and returns the
// extended slice. In steady state, appending into a buffer with enough
// capacity allocates nothing: the interning table lives in a pooled
// encoder.
func (m *Module) AppendBinary(dst []byte) []byte {
	e := encoders.Get().(*encoder)
	defer e.release()
	dst = appendStr(dst, m.Name)
	dst = binary.AppendUvarint(dst, uint64(len(m.Structs)))
	for _, s := range m.Structs {
		dst = e.structRef(dst, s)
	}
	dst = appendGlobals(dst, m.Globals)
	dst = binary.AppendUvarint(dst, uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		dst = e.fn(dst, f)
	}
	return dst
}

// FuncSum returns the SHA-256 of a self-contained encoding of f: the
// func production above, except that every struct reference writes its
// layout inline (uvarint(1) structDef) instead of interning it. The bytes
// depend on f alone, not on which function of its module used a layout
// first, so a function's sum is the same in every module that holds it.
func FuncSum(f *Func) [sha256.Size]byte {
	buf := sumBufs.Get().(*[]byte)
	defer sumBufs.Put(buf)
	*buf = (*encoder)(nil).fn((*buf)[:0], f)
	return sha256.Sum256(*buf)
}

// ContentSum returns the content sum of m with tail: SHA-256 over the
// header (name, struct layouts, globals), the function count, each
// function's 32-byte sum in order, then tail. sum gives function i's sum
// and must return FuncSum(f) for it; nil means FuncSum. It exists so a
// caller that already holds the sum of a function it knows is unchanged
// (the same immutable *Func it hashed before) can skip the body. Like the
// encoding, the result is a pure function of the module's content and
// tail, never of pointer identity.
func (m *Module) ContentSum(sum func(i int, f *Func) [sha256.Size]byte, tail []byte) [sha256.Size]byte {
	buf := sumBufs.Get().(*[]byte)
	defer sumBufs.Put(buf)
	b := appendStr((*buf)[:0], m.Name)
	b = binary.AppendUvarint(b, uint64(len(m.Structs)))
	for _, s := range m.Structs {
		b = (*encoder)(nil).structRef(b, s)
	}
	b = appendGlobals(b, m.Globals)
	b = binary.AppendUvarint(b, uint64(len(m.Funcs)))
	for i, f := range m.Funcs {
		var fs [sha256.Size]byte
		if sum != nil {
			fs = sum(i, f)
		} else {
			fs = FuncSum(f)
		}
		b = append(b, fs[:]...)
	}
	b = append(b, tail...)
	*buf = b
	return sha256.Sum256(b)
}

// sumBufs holds the scratch buffers content sums are hashed from; a
// buffer is only needed until its bytes are hashed.
var sumBufs = sync.Pool{New: func() any { return new([]byte) }}

// encoder holds the struct interning table of one module encoding. Its
// methods append to the dst they are given and return it: the bytes
// stay in a local slice, never in a field, so encoding writes no pointer
// to the heap per varint. A nil encoder interns nothing and writes every
// layout inline (FuncSum).
type encoder struct {
	structs []*StructType // interned layouts, in first-use order
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// release drops the encoder's references to the caller's memory and
// returns it to the pool with its table's capacity.
func (e *encoder) release() {
	clear(e.structs)
	e.structs = e.structs[:0]
	encoders.Put(e)
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendGlobals(dst []byte, gs []*Global) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(gs)))
	for _, g := range gs {
		dst = appendStr(dst, g.Name)
		dst = binary.AppendVarint(dst, g.Init)
	}
	return dst
}

func (e *encoder) structRef(dst []byte, s *StructType) []byte {
	if s == nil {
		return binary.AppendUvarint(dst, 0)
	}
	if e != nil {
		for i, t := range e.structs {
			if sameLayout(s, t) {
				return binary.AppendUvarint(dst, uint64(i)+2)
			}
		}
		e.structs = append(e.structs, s)
	}
	dst = binary.AppendUvarint(dst, 1)
	dst = appendStr(dst, s.Name)
	dst = binary.AppendUvarint(dst, uint64(len(s.Fields)))
	for _, f := range s.Fields {
		dst = appendStr(dst, f.Name)
		dst = binary.AppendVarint(dst, int64(f.Offset))
	}
	return dst
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

func (e *encoder) fn(dst []byte, f *Func) []byte {
	dst = appendStr(dst, f.Name)
	dst = binary.AppendVarint(dst, int64(f.NParams))
	dst = binary.AppendVarint(dst, int64(f.NRegs))
	dst = binary.AppendUvarint(dst, uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		dst = appendStr(dst, b.Name)
		dst = binary.AppendUvarint(dst, uint64(len(b.Instrs)))
		for i := range b.Instrs {
			dst = e.instr(dst, &b.Instrs[i])
		}
	}
	return dst
}

func (e *encoder) instr(dst []byte, in *Instr) []byte {
	dst = binary.AppendVarint(dst, int64(in.Op))
	dst = binary.AppendVarint(dst, int64(in.Dst))
	dst = binary.AppendVarint(dst, int64(in.X))
	dst = binary.AppendVarint(dst, int64(in.Y))
	dst = binary.AppendVarint(dst, in.Imm)
	dst = appendStr(dst, in.Sym)
	dst = e.structRef(dst, in.Struct)
	dst = binary.AppendVarint(dst, int64(in.Field))
	dst = binary.AppendVarint(dst, int64(in.Assign))
	dst = binary.AppendUvarint(dst, uint64(len(in.Args)))
	for _, a := range in.Args {
		dst = binary.AppendVarint(dst, int64(a))
	}
	dst = binary.AppendVarint(dst, int64(in.Blk1))
	dst = binary.AppendVarint(dst, int64(in.Blk2))
	if in.HasX {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.AppendVarint(dst, int64(in.Line))
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
