package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
)

// TestStreamDecoderMatchesRead pins the incremental decoder to the batch
// reader: same header, same events, same errors, over a corpus of random
// traces.
func TestStreamDecoderMatchesRead(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		tr := randomTrace(r)
		var bin bytes.Buffer
		if err := Write(&bin, tr); err != nil {
			t.Fatal(err)
		}
		want, err := Read(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("#%d: Read: %v", i, err)
		}
		sd, err := NewStreamDecoder(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("#%d: NewStreamDecoder: %v", i, err)
		}
		if !reflect.DeepEqual(sd.Automata(), want.Automata) || sd.Dropped() != want.Dropped {
			t.Fatalf("#%d: header mismatch", i)
		}
		if sd.Len() != len(want.Events) {
			t.Fatalf("#%d: Len() = %d, want %d", i, sd.Len(), len(want.Events))
		}
		var got []Event
		for {
			ev, err := sd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("#%d: Next: %v", i, err)
			}
			got = append(got, ev)
		}
		if !reflect.DeepEqual(got, want.Events) {
			t.Fatalf("#%d: streamed events differ from Read", i)
		}
		if _, err := sd.Next(); err != io.EOF {
			t.Fatalf("#%d: Next after EOF = %v, want io.EOF", i, err)
		}
	}
}

// TestStreamDecoderTruncation: cutting the encoding anywhere must produce
// an error from the header or from some Next call — never a silently
// short stream that still reports success.
func TestStreamDecoderTruncation(t *testing.T) {
	tr := fuzzSeedTrace()
	var bin bytes.Buffer
	if err := Write(&bin, tr); err != nil {
		t.Fatal(err)
	}
	data := bin.Bytes()
	for cut := 0; cut < len(data); cut++ {
		sd, err := NewStreamDecoder(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // header rejected: fine
		}
		n := 0
		for {
			_, err := sd.Next()
			if err == io.EOF {
				if n != sd.Len() {
					t.Fatalf("cut=%d: clean EOF after %d of %d events", cut, n, sd.Len())
				}
				// The declared count was satisfied before the cut — only
				// possible if the cut landed in trailing bytes, which a
				// complete trace does not have.
				t.Fatalf("cut=%d: truncated stream decoded completely", cut)
			}
			if err != nil {
				break // reported: good
			}
			n++
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	frames := []struct {
		kind    byte
		payload []byte
	}{
		{1, nil},
		{2, []byte("hello")},
		{3, bytes.Repeat([]byte{0xAB}, 1<<16)},
		{4, []byte{}},
	}
	for _, f := range frames {
		if err := fw.Frame(f.kind, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	for i, f := range frames {
		kind, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != f.kind || !bytes.Equal(payload, f.payload) {
			t.Fatalf("frame %d: kind=%d len=%d, want kind=%d len=%d", i, kind, len(payload), f.kind, len(f.payload))
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestNextIntoGrowsGeometrically: a reader that hands every payload back
// to NextInto reads frames that grow a little each time into a buffer it
// replaces only a few times, each time at least doubling it, and every
// payload still reads back intact.
func TestNextIntoGrowsGeometrically(t *testing.T) {
	var stream bytes.Buffer
	fw := NewFrameWriter(&stream)
	const frames, first, step = 200, 1000, 40 // 1000 B growing to 8960 B
	for i := 0; i < frames; i++ {
		if err := fw.Frame(byte(i), bytes.Repeat([]byte{byte(i)}, first+i*step)); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&stream)
	buf := make([]byte, 0, first)
	grown := 0
	for i := 0; i < frames; i++ {
		kind, payload, err := fr.NextInto(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != byte(i) || !bytes.Equal(payload, bytes.Repeat([]byte{byte(i)}, first+i*step)) {
			t.Fatalf("frame %d: kind %d, %d bytes, not the frame written", i, kind, len(payload))
		}
		if cap(payload) != cap(buf) {
			if cap(payload) < 2*cap(buf) {
				t.Fatalf("frame %d: buffer grew from %d to %d bytes, want at least double", i, cap(buf), cap(payload))
			}
			grown++
		}
		buf = payload
	}
	if grown > 4 {
		t.Fatalf("the buffer was replaced %d times for frames growing from %d to %d bytes", grown, first, first+(frames-1)*step)
	}
}

// TestFrameReaderTruncation distinguishes the clean boundary (io.EOF)
// from mid-frame truncation (io.ErrUnexpectedEOF).
func TestFrameReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.Frame(2, []byte("payload bytes")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 1; cut < len(data); cut++ {
		fr := NewFrameReader(bytes.NewReader(data[:cut]))
		_, _, err := fr.Next()
		if err == nil {
			t.Fatalf("cut=%d: truncated frame accepted", cut)
		}
		if err == io.EOF {
			t.Fatalf("cut=%d: mid-frame truncation reported as clean EOF", cut)
		}
	}
	// Oversized length prefix must be rejected without allocating it.
	huge := append([]byte{1}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, _, err := NewFrameReader(bytes.NewReader(huge)).Next(); err == nil {
		t.Fatal("implausible frame length accepted")
	}
}

// TestCutSinceExactAccounting drives a recorder past ring overflow and
// checks the delta contract: summing delta lengths and delta Dropped
// fields over any flush schedule accounts for every recorded event
// exactly once.
func TestCutSinceExactAccounting(t *testing.T) {
	autos := []*automata.Automaton{{Name: "a"}}
	cls := &core.Class{Name: "a", States: 4, Limit: 4}
	for _, flushEvery := range []int{1, 3, 7, 100, 100000} {
		rec := NewRecorder(autos, 8) // tiny rings: overflow is the point
		var cut *Cut
		var delivered, lost uint64
		var total int
		flush := func() {
			tr, next := rec.CutSince(cut)
			cut = next
			delivered += uint64(len(tr.Events))
			lost += tr.Dropped
			for i := 1; i < len(tr.Events); i++ {
				if tr.Events[i].Seq <= tr.Events[i-1].Seq {
					t.Fatal("delta not Seq-ordered")
				}
			}
		}
		for i := 0; i < 500; i++ {
			rec.Transition(cls, &core.Instance{Key: core.AnyKey.Set(0, core.Value(i))}, 0, 1, "sym")
			total++
			if total%flushEvery == 0 {
				flush()
			}
		}
		flush()
		if delivered+lost != uint64(total) {
			t.Fatalf("flushEvery=%d: delivered %d + lost %d != recorded %d",
				flushEvery, delivered, lost, total)
		}
		if flushEvery <= 8 && lost != 0 {
			t.Fatalf("flushEvery=%d: lost %d events despite flushing within ring capacity", flushEvery, lost)
		}
		if flushEvery == 100000 && lost == 0 {
			t.Fatal("single final cut over a tiny ring lost nothing; overflow accounting untested")
		}
	}
}

// TestCutSinceInjectedDrops: DropFault rejections are charged to the cut
// in which they happened, once.
func TestCutSinceInjectedDrops(t *testing.T) {
	autos := []*automata.Automaton{{Name: "a"}}
	cls := &core.Class{Name: "a", States: 4, Limit: 4}
	rec := NewRecorder(autos, 64)
	n := 0
	rec.DropFault = func() bool { n++; return n%2 == 0 }
	for i := 0; i < 10; i++ {
		rec.Accept(cls, &core.Instance{Key: core.AnyKey.Set(0, core.Value(i))})
	}
	tr, cut := rec.CutSince(nil)
	if len(tr.Events) != 5 || tr.Dropped != 5 {
		t.Fatalf("first cut: %d events, %d dropped; want 5, 5", len(tr.Events), tr.Dropped)
	}
	tr2, _ := rec.CutSince(cut)
	if len(tr2.Events) != 0 || tr2.Dropped != 0 {
		t.Fatalf("idle cut: %d events, %d dropped; want 0, 0", len(tr2.Events), tr2.Dropped)
	}
}

// TestCutIntoReusesDelta: CutInto advances its watermark in place and
// refills one delta, yielding exactly the deltas a CutSince chain does —
// across thread rings registered between cuts and ring overflow — while
// reusing the delta's backing array whenever it is large enough. Its
// encoding through AppendBinary round-trips through Read.
func TestCutIntoReusesDelta(t *testing.T) {
	autos := []*automata.Automaton{{Name: "a"}}
	cls := &core.Class{Name: "a", States: 4, Limit: 4}
	rec := NewRecorder(autos, 16)
	var prev *Cut
	var cut Cut
	var delta Trace
	var buf []byte
	reused := 0
	for round := 0; round < 12; round++ {
		if round%4 == 0 {
			// A new thread ring appears between cuts.
			tap := rec.ThreadTap(round)
			for i := 0; i < 3; i++ {
				tap.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgCall, Fn: "f", Vals: []core.Value{core.Value(i)}})
			}
		}
		for i := 0; i < 2+round*3; i++ { // later rounds overflow the 16-event ring
			rec.Transition(cls, &core.Instance{Key: core.AnyKey.Set(0, core.Value(i))}, 0, 1, "sym")
		}
		// A cut only reads the rings, so both chains, holding equal
		// watermarks, must cut the same interval.
		want, next := rec.CutSince(prev)
		prev = next
		before := cap(delta.Events)
		backing := delta.Events[:min(1, before)]
		rec.CutInto(&cut, &delta)
		if len(delta.Events) != len(want.Events) || (len(want.Events) > 0 && !reflect.DeepEqual(delta.Events, want.Events)) {
			t.Fatalf("round %d: CutInto events diverge from CutSince\ngot:  %v\nwant: %v", round, delta.Events, want.Events)
		}
		if delta.Dropped != want.Dropped {
			t.Fatalf("round %d: CutInto dropped %d, CutSince %d", round, delta.Dropped, want.Dropped)
		}
		if len(backing) == 1 && len(delta.Events) > 0 && len(delta.Events) <= before {
			if &delta.Events[0] != &backing[0] {
				t.Fatalf("round %d: a delta that fit was not cut into the reused array", round)
			}
			reused++
		}
		buf = AppendBinary(buf[:0], &delta)
		got, err := Read(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Dropped != delta.Dropped || len(got.Events) != len(delta.Events) {
			t.Fatalf("round %d: AppendBinary round trip lost events", round)
		}
	}
	if reused == 0 {
		t.Fatal("no delta fit the reused array; reuse went unexercised")
	}
}
