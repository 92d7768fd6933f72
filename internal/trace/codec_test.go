package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

// randomEvent builds a structurally valid event with randomised payload:
// the codec only promises round-tripping for events the recorder can
// produce, so kinds and per-kind fields stay in range while values roam.
func randomEvent(r *rand.Rand, seq uint64) Event {
	names := []string{"", "alpha", "beta", "a_rather_longer_symbol_name", "γ"}
	ev := Event{
		Seq:    seq,
		Thread: r.Intn(5) - 1,
		Time:   r.Int63n(1 << 40),
	}
	randKey := func() core.Key {
		var k core.Key
		k.Mask = uint32(r.Intn(1 << core.KeySize))
		for i := 0; i < core.KeySize; i++ {
			if k.Bound(i) {
				k.Data[i] = core.Value(r.Int63() - r.Int63())
			}
		}
		return k
	}
	if r.Intn(2) == 0 {
		ev.Kind = KindProgram
		ev.Prog = monitor.ProgKind(r.Intn(int(monitor.ProgDeliver) + 1))
		ev.Fn = names[r.Intn(len(names))]
		ev.Field = names[r.Intn(len(names))]
		ev.Op = spec.AssignOp(r.Intn(3))
		ev.Auto = r.Intn(8)
		ev.Sym = r.Intn(8)
		ev.Slot = r.Intn(8)
		if r.Intn(2) == 0 {
			ev.HasRet = true
			ev.Ret = core.Value(r.Int63() - r.Int63())
		}
		if n := r.Intn(4); n > 0 {
			ev.Vals = make([]core.Value, n)
			for i := range ev.Vals {
				ev.Vals[i] = core.Value(r.Int63() - r.Int63())
			}
		}
		if n := r.Intn(3); n > 0 {
			ev.InStack = make([]int, n)
			for i := range ev.InStack {
				ev.InStack[i] = r.Intn(16)
			}
		}
	} else {
		ev.Kind = Kind(1 + r.Intn(int(KindQuarantine)))
		ev.Class = names[1+r.Intn(len(names)-1)]
		ev.Symbol = names[r.Intn(len(names))]
		ev.Key = randKey()
		if ev.Kind == KindClone {
			ev.ParentKey = randKey()
		}
		ev.From = uint32(r.Intn(16))
		ev.To = uint32(r.Intn(16))
		ev.State = uint32(r.Intn(16))
		if ev.Kind == KindFail {
			ev.Verdict = core.VerdictKind(1 + r.Intn(3))
		}
		if ev.Kind == KindQuarantine {
			ev.On = r.Intn(2) == 0
		}
	}
	return ev
}

func randomTrace(r *rand.Rand) *Trace {
	t := &Trace{
		FormatVersion: Version,
		Automata:      []string{"a0", "a1"},
		Dropped:       uint64(r.Intn(3)),
	}
	seq := uint64(0)
	for i, n := 0, r.Intn(60); i < n; i++ {
		seq += uint64(1 + r.Intn(3)) // gaps, as ring overflow produces
		t.Events = append(t.Events, randomEvent(r, seq))
	}
	return t
}

// TestCodecRoundTrip is the property test for both encodings: any
// recorder-shaped trace survives encode/decode bit-for-bit.
func TestCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		tr := randomTrace(r)

		var bin bytes.Buffer
		if err := Write(&bin, tr); err != nil {
			t.Fatalf("#%d: write: %v", i, err)
		}
		got, err := Read(&bin)
		if err != nil {
			t.Fatalf("#%d: read: %v", i, err)
		}
		if !reflect.DeepEqual(tr, got) {
			t.Fatalf("#%d: binary round-trip mismatch\nin:  %+v\nout: %+v", i, tr, got)
		}

		var js bytes.Buffer
		if err := WriteJSON(&js, tr); err != nil {
			t.Fatalf("#%d: write json: %v", i, err)
		}
		got, err = Read(&js)
		if err != nil {
			t.Fatalf("#%d: read json: %v", i, err)
		}
		if !reflect.DeepEqual(tr, got) {
			t.Fatalf("#%d: JSON round-trip mismatch\nin:  %+v\nout: %+v", i, tr, got)
		}
	}
}

func TestCodecRejectsWrongVersion(t *testing.T) {
	tr := &Trace{FormatVersion: Version, Automata: []string{"a"}}
	var bin bytes.Buffer
	if err := Write(&bin, tr); err != nil {
		t.Fatal(err)
	}
	// The version uvarint is the byte right after the magic; Version is 1,
	// so bumping that byte forges a future version.
	data := bin.Bytes()
	data[len(magic)] = 99
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future binary version accepted: %v", err)
	}

	if _, err := Read(strings.NewReader(`{"version": 99, "automata": [], "events": []}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future JSON version accepted: %v", err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "XYZ", "TESLATRC", "TESLAT"} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("garbage %q accepted", in)
		}
	}
	// Truncation mid-stream must error, not silently shorten.
	r := rand.New(rand.NewSource(2))
	var tr *Trace
	for tr == nil || len(tr.Events) == 0 {
		tr = randomTrace(r)
	}
	var bin bytes.Buffer
	if err := Write(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(bin.Bytes()[:bin.Len()-1])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	t.Run("program", func(t *testing.T) { testRingOverwritesOldest(t, func(s *progSlot) *uint64 { return &s.Seq }) })
	t.Run("lifecycle", func(t *testing.T) { testRingOverwritesOldest(t, func(s *lifeSlot) *uint64 { return &s.Seq }) })
}

// testRingOverwritesOldest pushes seven slots through a four-slot ring;
// seq addresses a slot's Seq.
func testRingOverwritesOldest[T any](t *testing.T, seq func(*T) *uint64) {
	r := newRing[T](4)
	for i := 1; i <= 7; i++ {
		*seq(r.next()) = uint64(i)
	}
	a, b, lost := r.since(0)
	got := append(append([]T(nil), a...), b...)
	if len(got) != 4 || lost != 3 {
		t.Fatalf("got %d slots, %d lost; want 4, 3", len(got), lost)
	}
	for i := range got {
		if want := uint64(4 + i); *seq(&got[i]) != want {
			t.Fatalf("slot %d: seq %d, want %d", i, *seq(&got[i]), want)
		}
	}
	// A watermark at or past the oldest live slot loses nothing: from 3
	// the slots wrap the buffer's end (4, then 5–7), from 5 they do not.
	if a, b, lost := r.since(3); len(a) != 1 || len(b) != 3 || lost != 0 || *seq(&a[0]) != 4 || *seq(&b[2]) != 7 {
		t.Fatalf("since(3): %d+%d slots, %d lost; want 1+3 (4, then 5-7), none lost", len(a), len(b), lost)
	}
	if a, b, lost := r.since(5); len(a) != 2 || len(b) != 0 || lost != 0 || *seq(&a[0]) != 6 || *seq(&a[1]) != 7 {
		t.Fatalf("since(5): %d+%d slots, %d lost; want 2+0 (6, 7), none lost", len(a), len(b), lost)
	}
}

// TestDDMinSynthetic pins ddmin behaviour against predicates with known
// minima, independent of automata.
func TestDDMinSynthetic(t *testing.T) {
	mk := func(n int) []Event {
		out := make([]Event, n)
		for i := range out {
			out[i] = Event{Seq: uint64(i + 1)}
		}
		return out
	}
	has := func(events []Event, seqs ...uint64) bool {
		found := map[uint64]bool{}
		for _, e := range events {
			found[e.Seq] = true
		}
		for _, s := range seqs {
			if !found[s] {
				return false
			}
		}
		return true
	}

	// Needs exactly {3, 17}: ddmin must isolate the pair.
	got := ddmin(mk(24), func(es []Event) bool { return has(es, 3, 17) })
	if len(got) != 2 || !has(got, 3, 17) {
		t.Fatalf("pair predicate: got %v", got)
	}
	// Needs one event.
	got = ddmin(mk(31), func(es []Event) bool { return has(es, 30) })
	if len(got) != 1 || !has(got, 30) {
		t.Fatalf("singleton predicate: got %v", got)
	}
	// Everything required: nothing removable.
	all := mk(7)
	got = ddmin(all, func(es []Event) bool { return len(es) == 7 })
	if len(got) != 7 {
		t.Fatalf("rigid predicate: got %d events", len(got))
	}
}
