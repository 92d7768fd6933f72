package core

import (
	"fmt"
	"testing"
)

// FuzzCompiledStep feeds fuzzer-chosen event streams through the per-thread
// slot array and the global striped store and checks every event against the
// lifecycle model (model_test.go) to the stream's end, overflows included:
// the limit is small and the policy DropNew under FailStop. Each
// input byte encodes one event — symbol choice in the low bits, key material
// in the high bits — so the fuzzer can reach clone chains, strict
// violations, required-site misses and cleanup expunges in any order. This
// is the coverage-guided companion to TestModelDifferential and runs in
// `make fuzz-smoke`.
func FuzzCompiledStep(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78})
	f.Add([]byte{0xc1, 0x02, 0x43, 0x84, 0xc5, 0x06, 0x47, 0x88})
	f.Add([]byte{0x03, 0x43, 0x83, 0xc3, 0x03, 0x43, 0x83, 0xc3, 0x03})

	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}}
	mid := TransitionSet{{From: 1, To: 2, KeyMask: 3}, {From: 2, To: 3, KeyMask: 3}, {From: 3, To: 2, KeyMask: 3}}
	site := TransitionSet{{From: 2, To: 4, KeyMask: 1}}
	exit := TransitionSet{{From: 1, To: 7, Flags: TransCleanup}, {From: 2, To: 7, Flags: TransCleanup}, {From: 4, To: 7, Flags: TransCleanup}}

	type symbol struct {
		name  string
		flags SymbolFlags
		ts    TransitionSet
	}
	symbols := []symbol{
		{"enter", 0, enter},
		{"mid", 0, mid},
		{"mid", SymStrict, mid},
		{"site", SymRequired, site},
		{"exit", 0, exit},
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		for _, l := range []layout{{PerThread, 0}, {Global, 1}, {Global, 4}} {
			const limit = 6
			cls := &Class{Name: "fuzzstep", States: 8, Limit: limit}
			h := &noteHandler{}
			s := l.store(StoreOpts{Handler: h, Failure: FailStop})
			s.Register(cls)
			m := newLifecycleModel(cls.Name, limit, modelPolicy{failStop: true})

			plans := make([]*SymbolPlan, len(symbols))
			for i, sym := range symbols {
				plans[i] = NewSymbolPlan(cls, sym.name, sym.flags, sym.ts)
			}

			for i, b := range data {
				sym := symbols[int(b)%len(symbols)]
				key := Key{}
				if b&0x40 != 0 {
					key = key.Set(0, Value(b>>6))
				}
				if b&0x20 != 0 {
					key = key.Set(1, Value(b>>5&1))
				}
				want := m.step(sym.name, sym.flags, key, sym.ts)
				err := s.UpdateStatePlan(plans[int(b)%len(symbols)], key)
				where := fmt.Sprintf("byte %d (%#x, %v)", i, b, l)
				if got := errKind(err); got != want {
					t.Fatalf("%s: error %q (%v), model %q", where, got, err, want)
				}
				checkAgainstModel(t, where, s, cls, h, m)
			}
		}
	})
}
