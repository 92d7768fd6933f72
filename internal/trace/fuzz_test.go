package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"tesla/internal/core"
	"tesla/internal/monitor"
)

// fuzzSeedTrace is a small trace exercising every event kind, both key
// shapes, string interning (repeated names) and the optional return value.
func fuzzSeedTrace() *Trace {
	return &Trace{
		FormatVersion: Version,
		Automata:      []string{"a", "b"},
		Dropped:       1,
		Events: []Event{
			{Seq: 1, Thread: 0, Kind: KindProgram, Prog: monitor.ProgCall, Fn: "open", Vals: []core.Value{1, 2}},
			{Seq: 2, Thread: 0, Kind: KindProgram, Prog: monitor.ProgReturn, Fn: "open", Ret: 3, HasRet: true},
			{Seq: 3, Thread: 0, Kind: KindProgram, Prog: monitor.ProgSite, Fn: "a", Auto: 0, InStack: []int{0, 2}},
			{Seq: 4, Thread: -1, Kind: KindInit, Class: "a", Key: core.NewKey(7), State: 1},
			{Seq: 5, Thread: -1, Kind: KindClone, Class: "a", ParentKey: core.AnyKey, Key: core.NewKey(7), State: 2},
			{Seq: 6, Thread: -1, Kind: KindTransition, Class: "a", Key: core.NewKey(7), From: 1, To: 2, Symbol: "open"},
			{Seq: 7, Thread: -1, Kind: KindAccept, Class: "a", Key: core.NewKey(7)},
			{Seq: 8, Thread: -1, Kind: KindFail, Class: "b", Key: core.AnyKey, Verdict: core.VerdictNoInstance, Symbol: "site"},
			{Seq: 9, Thread: -1, Kind: KindOverflow, Class: "b", Key: core.NewKey(1, 2)},
		},
	}
}

// addCodecSeeds seeds a codec fuzz target: the seed trace in both
// encodings, a bare magic, a bare JSON brace and an implausible count.
func addCodecSeeds(f *testing.F) {
	var bin bytes.Buffer
	if err := Write(&bin, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	var js bytes.Buffer
	if err := WriteJSON(&js, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(js.Bytes())
	f.Add([]byte("TESLATRC"))
	f.Add([]byte("{"))
	f.Add(append([]byte("TESLATRC\x01\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0x7f))
}

// FuzzCodecRoundTrip checks that Read never panics on arbitrary bytes, and
// that any trace Read accepts survives a binary encode/decode round trip:
// re-encoding the decoded trace yields the same trace again. (The first
// binary pass canonicalises JSON-only looseness such as empty-vs-nil
// slices, so the invariant compares the first and second binary decodes;
// for binary inputs that is the identity.)
func FuzzCodecRoundTrip(f *testing.F) {
	addCodecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		t1, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejecting is fine; panicking or over-allocating is not
		}
		var buf bytes.Buffer
		if err := Write(&buf, t1); err != nil {
			t.Fatalf("encode of accepted trace failed: %v", err)
		}
		t2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, t2); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		t3, err := Read(bytes.NewReader(buf2.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(t2, t3) {
			t.Fatalf("binary round trip not stable:\nfirst:  %+v\nsecond: %+v", t2, t3)
		}
		if data[0] != '{' && !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("binary encoding not canonical: %x vs %x", buf.Bytes(), buf2.Bytes())
		}
	})
}

// FuzzFrameStream fuzzes the streaming layer the aggregation wire protocol
// sits on: the frame reader (truncated frames, oversized length prefixes)
// and the incremental trace decoder inside each trace-kind frame (garbage
// after the magic, truncated events). Invariants: never panic, never
// allocate past the declared bounds, and agree with the batch Read on
// every payload — a frame's trace decodes through StreamDecoder to
// exactly the events Read yields, or both reject it.
func FuzzFrameStream(f *testing.F) {
	var tr bytes.Buffer
	if err := Write(&tr, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	var stream bytes.Buffer
	fw := NewFrameWriter(&stream)
	fw.Frame(1, []byte(`{"proto":1,"codec":1}`))
	fw.Frame(2, tr.Bytes())
	fw.Frame(4, nil)
	f.Add(stream.Bytes())
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // oversized prefix
	f.Add(append([]byte{2, 12}, "TESLATRCgarb"...))                              // garbage after magic
	f.Add(stream.Bytes()[:stream.Len()-3])                                       // truncated tail

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			kind, payload, err := fr.Next()
			if err != nil {
				return // rejection (or clean EOF) is fine; panicking is not
			}
			if kind != 2 {
				continue
			}
			// Trace frame: streaming and batch decodes must agree.
			sd, sdErr := NewStreamDecoder(bytes.NewReader(payload))
			batch, readErr := Read(bytes.NewReader(payload))
			if (sdErr == nil) != (readErr == nil) && sdErr != nil {
				// Read may fail later than the header; only a header
				// acceptance paired with a batch rejection needs the
				// event-level comparison below to also fail.
				t.Fatalf("header verdicts diverge: stream=%v read=%v", sdErr, readErr)
			}
			if sdErr != nil {
				continue
			}
			var events []Event
			var nextErr error
			for {
				ev, err := sd.Next()
				if err != nil {
					nextErr = err
					break
				}
				events = append(events, ev)
			}
			if readErr == nil {
				if nextErr != io.EOF {
					t.Fatalf("Read accepted but stream errored: %v", nextErr)
				}
				if !reflect.DeepEqual(events, batch.Events) && len(batch.Events) > 0 {
					t.Fatalf("streamed events diverge from Read")
				}
			} else if nextErr == io.EOF {
				t.Fatalf("Read rejected (%v) but stream decoded cleanly", readErr)
			}
		}
	})
}

// FuzzDecodeAgree holds the two ways into the one event decoder to one
// answer: decoding the whole input from memory (Decoder) and streaming it
// one byte per Read (StreamDecoder over iotest.OneByteReader, which makes
// every field that straddles a refill decode again) yield the same header,
// the same events and the same error, or both none.
func FuzzDecodeAgree(f *testing.F) {
	addCodecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		decErr := dec.Reset(data)
		sd, sdErr := NewStreamDecoder(iotest.OneByteReader(bytes.NewReader(data)))
		if errText(decErr) != errText(sdErr) {
			t.Fatalf("header errors differ: memory %v, stream %v", decErr, sdErr)
		}
		if decErr != nil {
			return
		}
		if !reflect.DeepEqual(dec.Automata(), sd.Automata()) || dec.Dropped() != sd.Dropped() || dec.Len() != sd.Len() {
			t.Fatalf("headers differ: memory %q/%d/%d, stream %q/%d/%d",
				dec.Automata(), dec.Dropped(), dec.Len(), sd.Automata(), sd.Dropped(), sd.Len())
		}
		for i := 0; ; i++ {
			var ev Event
			err := dec.Next(&ev)
			sev, serr := sd.Next()
			if errText(err) != errText(serr) {
				t.Fatalf("event %d: errors differ: memory %v, stream %v", i, err, serr)
			}
			if err != nil {
				return
			}
			if !reflect.DeepEqual(ev, sev) {
				t.Fatalf("event %d differs:\nmemory: %+v\nstream: %+v", i, ev, sev)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestCodecRoundTripSeed pins the seed trace's exact round trip in the
// ordinary test suite, so codec regressions fail fast without the fuzzer.
func TestCodecRoundTripSeed(t *testing.T) {
	want := fuzzSeedTrace()
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the trace:\ngot:  %+v\nwant: %+v", got, want)
	}
}
