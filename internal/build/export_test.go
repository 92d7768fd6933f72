package build

import "tesla/internal/ir"

// EncodeModuleArtifact returns the module artifact encoder bound to m, as
// execNode calls it for instrument, strip and link nodes.
func EncodeModuleArtifact(m *ir.Module) func(dst []byte) ([]byte, error) {
	art := &moduleArtifact{Module: m}
	return func(dst []byte) ([]byte, error) { return encodeModule(art, dst) }
}

// ExecModuleNode returns a function that runs one link node producing m
// through execNode, on a memory cache emptied before each call so every
// call misses and encodes.
func ExecModuleNode(m *ir.Module) func() {
	art := &moduleArtifact{Module: m}
	x := &exec{cache: NewCache()}
	n := &node{id: "link", kind: "link", encode: encodeModule, decode: decodeModule,
		run: func() (any, error) { return art, nil }}
	return func() {
		clear(x.cache.mem)
		x.execNode(n)
		if n.err != nil {
			panic(n.err)
		}
	}
}
