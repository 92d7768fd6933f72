package build

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sort"
	"sync"

	"tesla/internal/automata"
	"tesla/internal/compiler"
	"tesla/internal/instrument"
	"tesla/internal/ir"
	"tesla/internal/manifest"
	"tesla/internal/staticcheck"
)

// Artifact codecs. A node's artifact has a hash that dependent keys
// incorporate, and bytes that the on-disk cache stores. For most kinds the
// hash is SHA-256 over the bytes, so "did my input change?" is answered by
// comparing serialised content, never pointers or timestamps. Unit and
// module artifacts instead carry a content sum (ir.Module.ContentSum): the
// same content hashed per function, so a function the node shares with
// its compile artifact contributes that artifact's memoized digest and is
// not hashed again. Those artifacts are encoded only for the disk layer.
// An artifact nothing reads (the linked program on a memory-only cache)
// is never hashed at all.
//
// Encoders append into dst, a buffer the scheduler owns and reuses once
// the bytes are hashed and written; an encoder must not retain it.
// Decoders receive bytes read from disk and may keep them.

// unitArtifact is the compile node's product: the file's IR module plus
// its manifest fragment (the analyse stage extracts the fragment; carrying
// it here means a compile cache hit restores the unit's assertions without
// reparsing the source).
type unitArtifact struct {
	Module   *ir.Module
	Fragment []byte // fragment manifest, JSON-encoded

	// The parsed unit, memoized: the artifact is shared through the
	// memory cache, so each build that hits it reuses one decode.
	unitOnce sync.Once
	unitVal  *compiler.Unit
	unitErr  error

	// The ir.FuncSum of each of Module's functions, memoized: the unit's
	// content sum and the optimised digests below both read them.
	rawOnce sync.Once
	rawSums []Digest

	// Module's functions optimised, and each one's ir.FuncSum, memoized
	// the same way: every instrument or strip node over this artifact, in
	// this build or a later one, shares them for the functions its pass
	// leaves alone.
	optOnce sync.Once
	optFns  []*ir.Func
	optSums []Digest
}

// moduleArtifact is the product of the instrument, strip and link nodes.
// Stats is meaningful for instrument nodes only. from is the compile
// artifact an instrument or strip node derived Module from (nil for link
// nodes and decoded artifacts): a function of Module that is one of
// from's optimised functions takes its memoized digest.
type moduleArtifact struct {
	Module *ir.Module
	Stats  instrument.Stats
	from   *unitArtifact
}

var errTrailing = errors.New("build: decode: trailing bytes after artifact")

// encodeUnit: the module, then the length-prefixed fragment.
func encodeUnit(art any, dst []byte) ([]byte, error) {
	u := art.(*unitArtifact)
	dst = u.Module.AppendBinary(dst)
	dst = binary.AppendUvarint(dst, uint64(len(u.Fragment)))
	return append(dst, u.Fragment...), nil
}

func decodeUnit(data []byte) (any, error) {
	m, rest, err := ir.DecodeModule(data)
	if err != nil {
		return nil, err
	}
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)-k) {
		return nil, errors.New("build: decode: truncated fragment")
	}
	if rest = rest[k:]; uint64(len(rest)) != n {
		return nil, errTrailing
	}
	return &unitArtifact{Module: m, Fragment: bytes.Clone(rest)}, nil
}

// sumUnit is a unit artifact's content sum: the module's, with the
// fragment as its tail, from the memoized function digests.
func sumUnit(art any) Digest {
	u := art.(*unitArtifact)
	sums := u.funcSums()
	return u.Module.ContentSum(func(i int, _ *ir.Func) [sha256.Size]byte { return sums[i] }, u.Fragment)
}

// encodeModule: the module, then the five Stats counters.
func encodeModule(art any, dst []byte) ([]byte, error) {
	a := art.(*moduleArtifact)
	return a.appendStats(a.Module.AppendBinary(dst)), nil
}

func (a *moduleArtifact) appendStats(dst []byte) []byte {
	for _, v := range [...]int{a.Stats.Hooks, a.Stats.Translators, a.Stats.Sites, a.Stats.ElidedHooks, a.Stats.ElidedSites} {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// sumModule is a module artifact's content sum: the module's, with the
// Stats counters as its tail. Function i takes the compile artifact's
// memoized digest when it is that artifact's optimised function i: the
// IR is immutable once built, so the same pointer means the same content.
func sumModule(art any) Digest {
	a := art.(*moduleArtifact)
	var stack [5 * binary.MaxVarintLen64]byte
	tail := a.appendStats(stack[:0])
	if a.from == nil {
		return a.Module.ContentSum(nil, tail)
	}
	fns, sums := a.from.optimized()
	return a.Module.ContentSum(func(i int, f *ir.Func) [sha256.Size]byte {
		if i < len(fns) && f == fns[i] {
			return sums[i]
		}
		return ir.FuncSum(f)
	}, tail)
}

func decodeModule(data []byte) (any, error) {
	m, rest, err := ir.DecodeModule(data)
	if err != nil {
		return nil, err
	}
	a := &moduleArtifact{Module: m}
	for _, p := range [...]*int{&a.Stats.Hooks, &a.Stats.Translators, &a.Stats.Sites, &a.Stats.ElidedHooks, &a.Stats.ElidedSites} {
		v, k := binary.Varint(rest)
		if k <= 0 {
			return nil, errors.New("build: decode: truncated stats")
		}
		*p, rest = int(v), rest[k:]
	}
	if len(rest) != 0 {
		return nil, errTrailing
	}
	return a, nil
}

// encodeSafeSet: a check report's provably-safe automata names, as
// encodeDefs writes names — the only part of a check verdict downstream
// instrumentation keys on.
func encodeSafeSet(art any, dst []byte) ([]byte, error) {
	return appendNames(dst, art.(*staticcheck.Report).SafeSet()), nil
}

// encodeDefs: the defined-function names, sorted, each NUL-terminated.
func encodeDefs(art any, dst []byte) ([]byte, error) {
	return appendNames(dst, art.(map[string]bool)), nil
}

func appendNames(dst []byte, set map[string]bool) []byte {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dst = append(dst, name...)
		dst = append(dst, 0)
	}
	return dst
}

// decodeDefs accepts only encodeDefs's output: non-empty names in
// strictly increasing order, each NUL-terminated.
func decodeDefs(data []byte) (any, error) {
	defs := map[string]bool{}
	prev := ""
	for len(data) > 0 {
		i := bytes.IndexByte(data, 0)
		if i <= 0 || (prev != "" && string(data[:i]) <= prev) {
			return nil, errors.New("build: decode: malformed defined-function set")
		}
		prev = string(data[:i])
		defs[prev] = true
		data = data[i+1:]
	}
	return defs, nil
}

func encodeIface(art any, dst []byte) ([]byte, error) {
	data, err := art.(*compiler.Interface).Encode()
	return append(dst, data...), err
}

func decodeIface(data []byte) (any, error) { return compiler.DecodeInterface(data) }

func encodeManifest(art any, dst []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	err := art.(*manifest.File).Encode(buf)
	return buf.Bytes(), err
}

func decodeManifest(data []byte) (any, error) {
	return manifest.Decode(bytes.NewReader(data))
}

// autosArtifact pairs compiled automata with the manifest bytes they were
// compiled from. The on-disk form is just the manifest: automata
// compilation is deterministic, so decoding recompiles — the disk object
// is a recipe, not a pickle.
type autosArtifact struct {
	Autos    []*automata.Automaton
	Manifest []byte
}

func encodeAutos(art any, dst []byte) ([]byte, error) {
	return append(dst, art.(*autosArtifact).Manifest...), nil
}

func decodeAutos(data []byte) (any, error) {
	m, err := manifest.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	autos, err := m.Compile()
	if err != nil {
		return nil, err
	}
	return &autosArtifact{Autos: autos, Manifest: data}, nil
}

// unit decodes and parses the fragment's assertions once per artifact.
// Every build served this artifact gets the same *compiler.Unit, which
// callers only read.
func (u *unitArtifact) unit() (*compiler.Unit, error) {
	u.unitOnce.Do(func() { u.unitVal, u.unitErr = u.parseUnit() })
	return u.unitVal, u.unitErr
}

func (u *unitArtifact) parseUnit() (*compiler.Unit, error) {
	frag, err := u.fragment()
	if err != nil {
		return nil, err
	}
	as, err := frag.Parse()
	if err != nil {
		return nil, err
	}
	return &compiler.Unit{Module: u.Module, Assertions: as}, nil
}

// funcSums returns the ir.FuncSum of each of u's functions, computing
// them once per artifact. The sync.Once is the happens-before between the
// graph worker that hashes the compile artifact and the ones that
// optimise it for instrument and strip nodes, whichever runs first.
func (u *unitArtifact) funcSums() []Digest {
	u.rawOnce.Do(func() {
		u.rawSums = make([]Digest, len(u.Module.Funcs))
		for i, f := range u.Module.Funcs {
			u.rawSums[i] = ir.FuncSum(f)
		}
	})
	return u.rawSums
}

// optimized returns u's functions optimised and their digests, computing
// both once per artifact. ir.OptimizeFunc returns a function with nothing
// dead as it is, and IR is immutable, so that function's digest is its
// raw one: it is hashed once, for the unit's content sum, not again here.
func (u *unitArtifact) optimized() ([]*ir.Func, []Digest) {
	u.optOnce.Do(func() {
		raw := u.funcSums()
		u.optFns = make([]*ir.Func, len(u.Module.Funcs))
		u.optSums = make([]Digest, len(u.Module.Funcs))
		for i, f := range u.Module.Funcs {
			u.optFns[i] = ir.OptimizeFunc(f)
			if u.optFns[i] == f {
				u.optSums[i] = raw[i]
			} else {
				u.optSums[i] = ir.FuncSum(u.optFns[i])
			}
		}
	})
	return u.optFns, u.optSums
}

// optimize optimises m, the output of instrument.Module or
// instrument.Strip over u's module, writing only m.Funcs, and returns
// m's artifact. A function the pass left alone is u's own pointer at the
// same index, and takes u's memoized optimised copy; only the functions
// the pass rewrote or generated are optimised here.
func (u *unitArtifact) optimize(m *ir.Module, stats instrument.Stats) *moduleArtifact {
	opt, _ := u.optimized()
	src := u.Module.Funcs
	for i, f := range m.Funcs {
		if i < len(src) && f == src[i] {
			m.Funcs[i] = opt[i]
		} else {
			m.Funcs[i] = ir.OptimizeFunc(f)
		}
	}
	return &moduleArtifact{Module: m, Stats: stats, from: u}
}

func (u *unitArtifact) fragment() (*manifest.File, error) {
	return manifest.Decode(bytes.NewReader(u.Fragment))
}
