// Package core implements libtesla, the run-time support library for TESLA
// (Temporally Enhanced System Logic Assertions, EuroSys 2014).
//
// libtesla accepts streams of program events and uses them to manage automata
// instances. Automata classes — one per programmer-specified assertion — are
// registered with a Store (global or thread-local). Each class can be
// instantiated a number of times, differentiated by the variables the
// instances reference (their Key). Instances move through the lifecycle
// described in §4.4.1 of the paper: «init», clone, update, error and
// «cleanup».
package core

import "fmt"

// Value is a single machine word observed by instrumentation: a C int, an
// enum, or a pointer (represented as an opaque address). TESLA argument
// matching only ever compares words for equality or against bitmasks, so a
// 64-bit integer carries every value the instrumenter can capture.
type Value int64

// KeySize is the maximum number of variables an automaton instance may bind,
// as TESLA_KEY_SIZE is in the reference libtesla implementation.
const KeySize = 4

// Key names an automaton instance by the variable values it has bound.
// Mask bit i set means Data[i] is significant; a zero mask is the fully
// unbound name (∗) given to instances at «init» time, before any of the
// assertion's variables are known.
type Key struct {
	Mask uint32
	Data [KeySize]Value
}

// AnyKey is the fully-unbound key (∗).
var AnyKey = Key{}

// Set binds slot i to v, returning the updated key.
func (k Key) Set(i int, v Value) Key {
	if i < 0 || i >= KeySize {
		panic(fmt.Sprintf("core: key slot %d out of range", i))
	}
	k.Data[i] = v
	k.Mask |= 1 << uint(i)
	return k
}

// Bound reports whether slot i carries a value.
func (k Key) Bound(i int) bool { return k.Mask&(1<<uint(i)) != 0 }

// The key algebra below is unrolled for TESLA_KEY_SIZE = 4; force a compile
// error if KeySize ever changes so it is revised rather than silently wrong.
const _ = uint(KeySize-4) + uint(4-KeySize)

// Compatible reports whether two keys agree on every slot bound in both.
// An instance named (∗) is compatible with every event key; (vp₁) is
// compatible with (vp₁) but not (vp₂). It runs on every candidate of every
// event, so it compares all four slots unconditionally into a mismatch mask
// and tests that against the slots bound in both: no per-slot branches, no
// loop.
func (k Key) Compatible(o Key) bool {
	var bad uint32
	if k.Data[0] != o.Data[0] {
		bad = 1
	}
	if k.Data[1] != o.Data[1] {
		bad |= 2
	}
	if k.Data[2] != o.Data[2] {
		bad |= 4
	}
	if k.Data[3] != o.Data[3] {
		bad |= 8
	}
	return k.Mask&o.Mask&bad == 0
}

// union4 merges two keys known to be compatible into the most specific key
// agreeing with both: the event bodies establish compatibility when they
// collect candidates.
func union4(k, o Key) Key {
	if o.Mask&1 != 0 {
		k.Data[0] = o.Data[0]
	}
	if o.Mask&2 != 0 {
		k.Data[1] = o.Data[1]
	}
	if o.Mask&4 != 0 {
		k.Data[2] = o.Data[2]
	}
	if o.Mask&8 != 0 {
		k.Data[3] = o.Data[3]
	}
	k.Mask |= o.Mask
	return k
}

// String renders the key in the paper's (v₁, ∗, …) notation.
func (k Key) String() string {
	if k.Mask == 0 {
		return "(∗)"
	}
	s := "("
	hi := 0
	for i := 0; i < KeySize; i++ {
		if k.Bound(i) {
			hi = i
		}
	}
	for i := 0; i <= hi; i++ {
		if i > 0 {
			s += ","
		}
		if k.Bound(i) {
			s += fmt.Sprintf("%d", k.Data[i])
		} else {
			s += "∗"
		}
	}
	return s + ")"
}
