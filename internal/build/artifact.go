package build

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"tesla/internal/automata"
	"tesla/internal/compiler"
	"tesla/internal/instrument"
	"tesla/internal/ir"
	"tesla/internal/manifest"
)

// Artifact codecs. Every node encodes its artifact to deterministic bytes:
// the bytes are what the on-disk cache stores, and their hash is what
// downstream node keys incorporate — so "did my input change?" is always
// answered by comparing serialised content, never pointers or timestamps.

// unitArtifact is the compile node's product: the file's IR module plus
// its manifest fragment (the analyse stage extracts the fragment; carrying
// it here means a compile cache hit restores the unit's assertions without
// reparsing the source).
type unitArtifact struct {
	Module   *ir.Module
	Fragment []byte // fragment manifest, JSON-encoded
}

// moduleArtifact is the product of the instrument, strip and link nodes.
// Stats is meaningful for instrument nodes only.
type moduleArtifact struct {
	Module *ir.Module
	Stats  instrument.Stats
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("build: encode: %w", err)
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("build: decode: %w", err)
	}
	return nil
}

func encodeUnit(art any) ([]byte, error)   { return gobEncode(art.(*unitArtifact)) }
func encodeModule(art any) ([]byte, error) { return gobEncode(art.(*moduleArtifact)) }

func decodeUnit(data []byte) (any, error) {
	var u unitArtifact
	if err := gobDecode(data, &u); err != nil {
		return nil, err
	}
	return &u, nil
}

func decodeModule(data []byte) (any, error) {
	var m moduleArtifact
	if err := gobDecode(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

func encodeIface(art any) ([]byte, error) { return art.(*compiler.Interface).Encode() }

func decodeIface(data []byte) (any, error) { return compiler.DecodeInterface(data) }

func encodeManifest(art any) ([]byte, error) {
	var buf bytes.Buffer
	if err := art.(*manifest.File).Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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

func encodeAutos(art any) ([]byte, error) { return art.(*autosArtifact).Manifest, nil }

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

func (u *unitArtifact) unit() (*compiler.Unit, error) {
	frag, err := manifest.Decode(bytes.NewReader(u.Fragment))
	if err != nil {
		return nil, err
	}
	as, err := frag.Parse()
	if err != nil {
		return nil, err
	}
	return &compiler.Unit{Module: u.Module, Assertions: as}, nil
}

func (u *unitArtifact) fragment() (*manifest.File, error) {
	return manifest.Decode(bytes.NewReader(u.Fragment))
}
