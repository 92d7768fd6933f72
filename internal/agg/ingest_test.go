package agg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tesla/internal/core"
	"tesla/internal/dtrace"
	"tesla/internal/monitor"
	"tesla/internal/trace"
)

// sliceWindowSamples is the reference for failure samples: the window
// kept as a slice of the frame's last Window events, shifted on every
// event, and copied whole into each failure's sample.
func sliceWindowSamples(process string, events []trace.Event, window int) []Sample {
	var out []Sample
	win := make([]trace.Event, 0, window)
	for _, ev := range events {
		if ev.Kind == trace.KindFail {
			out = append(out, Sample{Process: process, Events: append(append([]trace.Event(nil), win...), ev)})
		}
		if len(win) == window {
			copy(win, win[1:])
			win = win[:window-1]
		}
		win = append(win, ev)
	}
	return out
}

// TestStreamingSamplesMatchSliceWindow: the streaming ingester's ring
// window yields exactly the failure samples of the slice-window
// reference — failures at frame positions 0, 1, Window-1, Window and
// Window+5, plus two back to back — through both IngestFrame and
// IngestTrace, and the window restarts with every frame.
func TestStreamingSamplesMatchSliceWindow(t *testing.T) {
	for _, window := range []int{1, 4, 8} {
		fails := map[int]bool{0: true, 1: true, window - 1: true, window: true, window + 5: true, window + 9: true, window + 10: true}
		var seq uint64
		var frames []*trace.Trace
		var want []Sample
		for f := 0; f < 2; f++ {
			tr := &trace.Trace{FormatVersion: trace.Version}
			for i := 0; i < window+16; i++ {
				seq++
				ev := trace.Event{Seq: seq, Thread: -1, Kind: trace.KindTransition, Class: "c", From: uint32(i), To: uint32(i + 1), Symbol: "t"}
				if fails[i] {
					ev = trace.Event{Seq: seq, Thread: -1, Kind: trace.KindFail, Class: "c", Symbol: "site", Verdict: core.VerdictNoInstance}
				}
				tr.Events = append(tr.Events, ev)
			}
			frames = append(frames, tr)
			want = append(want, sliceWindowSamples("p", tr.Events, window)...)
		}
		for _, path := range []struct {
			name   string
			ingest func(*Store, *trace.Trace) error
		}{
			{"IngestFrame", func(s *Store, tr *trace.Trace) error {
				return s.IngestFrame("p", trace.AppendBinary(binary.AppendUvarint(nil, uint64(len(tr.Events))), tr))
			}},
			{"IngestTrace", func(s *Store, tr *trace.Trace) error { s.IngestTrace("p", tr); return nil }},
		} {
			store := NewStore(StoreOpts{SampleCap: 64, Window: window})
			for _, tr := range frames {
				if err := path.ingest(store, tr); err != nil {
					t.Fatal(err)
				}
			}
			if got := store.Samples("c"); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d, %s: samples diverge from the slice-window reference\ngot:  %+v\nwant: %+v", window, path.name, got, want)
			}
		}
	}
}

// TestPublisherBufferReuse: the publisher's flusher encodes every delta
// into one buffer, so once a flush returns its bytes are overwritten by
// the next.
// Frames still queued (a one-frame buffer overflowing to the spool) or
// unacked (a connection reset after the write landed) must nonetheless
// deliver the earlier events exactly once: the client's send copies the
// delta into a payload of its own and keeps nothing of the buffer.
func TestPublisherBufferReuse(t *testing.T) {
	srv, sock := startServer(t, ServerOpts{})
	spool, err := trace.OpenSpool(filepath.Join(t.TempDir(), "spool"), trace.SpoolOpts{Sync: trace.SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	c, err := Dial(sock, ClientOpts{
		Tool: "t", Process: "reuse", Buffer: 1, backoff: 5 * time.Millisecond, Spool: spool,
		wrapConn: func(conn net.Conn) net.Conn {
			return &flakyConn{Conn: conn, failAt: 2, fired: &fired}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(nil, 1<<14)
	// A Publisher is this flusher with Client.sendEncoded as its send; the
	// wrapper only watches which array each delta arrives in.
	var backing *byte
	reused := true
	pub := trace.NewFlusher(rec, 0, func(delta []byte, events, dropped uint64) error {
		if backing == nil {
			backing = &delta[0]
		} else if &delta[0] != backing {
			reused = false
		}
		return c.sendEncoded(delta, events, dropped)
	})
	classes := []*core.Class{{Name: "alpha"}, {Name: "beta"}}

	const flushes = 12
	for f := 0; f < flushes; f++ {
		// Every delta has its own content and is no larger than the
		// first, so each flush overwrites the same backing array.
		cls := classes[f%2]
		inst := &core.Instance{Key: core.AnyKey.Set(0, core.Value(f))}
		for i := 0; i < 40-f; i++ {
			rec.Transition(cls, inst, uint32(f), uint32(f+1), fmt.Sprintf("s%d", f))
		}
		rec.Accept(cls, inst)
		rec.Fail(&core.Violation{Class: cls, Kind: core.VerdictNoInstance, Key: inst.Key, Symbol: fmt.Sprintf("site%d", f%3)})
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !reused {
		t.Fatal("a flush did not reuse the delta's backing array")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !fired.Load() || c.Stats().Reconnects == 0 {
		t.Fatalf("the injected reset never forced a reconnect (fired=%v, stats %+v)", fired.Load(), c.Stats())
	}

	var ps ProducerStat
	waitFor(t, "reuse producer clean", func() bool {
		for _, p := range srv.store.Fleet().Producers {
			if p.Process == "reuse" && p.Clean {
				ps = p
				return true
			}
		}
		return false
	})
	if ps.Events+ps.DroppedEvents != ps.SentEvents {
		t.Fatalf("accounting leak: ingested %d + dropped %d != sent %d", ps.Events, ps.DroppedEvents, ps.SentEvents)
	}
	if recorded := rec.EventCount(); ps.Events != recorded {
		t.Fatalf("ingested %d events, recorder recorded %d: not exactly once", ps.Events, recorded)
	}
	want, got := dtrace.Summarize(rec.Snapshot()), srv.store.Summarize()
	for _, pair := range []struct {
		name      string
		want, got *dtrace.Aggregation
	}{
		{"transitions", want.Transitions, got.Transitions},
		{"accepts", want.Accepts, got.Accepts},
		{"failures", want.Failures, got.Failures},
	} {
		if w, g := pair.want.Snapshot(), pair.got.Snapshot(); !reflect.DeepEqual(w, g) {
			t.Fatalf("%s diverge from the recorded run\nrecorded: %v\nfleet:    %v", pair.name, w, g)
		}
	}
}

// fleetTrace builds an n-event delta shaped like a fleet producer's: each
// round of ten is a bound begin, a site and a deliver event with one value,
// the «init» and clone they cause, a transition, a site carrying an
// instack list, a second transition, an accept and the bound end. Event
// failAt is a failure instead, so the frame holds one (none when failAt
// is past the end). The vocabulary is fixed, so larger frames repeat the
// same strings and sites; values follow the sequence numbers, so frames
// at different bases carry different ones.
func fleetTrace(seqBase uint64, n, failAt int) *trace.Trace {
	tr := &trace.Trace{FormatVersion: trace.Version, Automata: []string{"lock"}, Dropped: 3}
	for i := 0; i < n; i++ {
		v := core.Value((seqBase + uint64(i)) / 10 % 64)
		key := core.AnyKey.Set(0, v)
		ev := trace.Event{Seq: seqBase + uint64(i) + 1, Thread: -1, Time: int64(i)}
		switch i % 10 {
		case 0:
			ev.Thread, ev.Kind, ev.Prog, ev.Slot = 0, trace.KindProgram, monitor.ProgBoundBegin, 0
		case 1:
			ev.Thread, ev.Kind, ev.Prog, ev.Fn, ev.Vals = 0, trace.KindProgram, monitor.ProgSite, "lock", []core.Value{v}
		case 2:
			ev.Kind, ev.Class, ev.Key, ev.State = trace.KindInit, "lock", core.AnyKey, 1
		case 3:
			ev.Kind, ev.Class, ev.ParentKey, ev.Key, ev.State = trace.KindClone, "lock", core.AnyKey, key, 2
		case 4:
			ev.Thread, ev.Kind, ev.Prog, ev.Auto, ev.Sym, ev.Vals = 0, trace.KindProgram, monitor.ProgDeliver, 0, 1, []core.Value{v}
		case 5:
			ev.Kind, ev.Class, ev.Key, ev.From, ev.To, ev.Symbol = trace.KindTransition, "lock", key, 2, 3, "acquire"
		case 6:
			ev.Thread, ev.Kind, ev.Prog, ev.Fn, ev.InStack = 0, trace.KindProgram, monitor.ProgSite, "check", []int{0, int(v % 3)}
		case 7:
			ev.Kind, ev.Class, ev.Key, ev.From, ev.To, ev.Symbol = trace.KindTransition, "lock", key, 3, 4, "release"
		case 8:
			ev.Kind, ev.Class, ev.Key = trace.KindAccept, "lock", key
		case 9:
			ev.Thread, ev.Kind, ev.Prog, ev.Slot = 0, trace.KindProgram, monitor.ProgBoundEnd, 0
		}
		if i == failAt {
			ev = trace.Event{Seq: ev.Seq, Thread: -1, Time: ev.Time, Kind: trace.KindFail, Class: "lock",
				Key: key, State: 3, Symbol: "check", Verdict: core.VerdictNoInstance}
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr
}

// framePayload is a trace frame's payload as the server applies it: the
// event count, then the binary trace.
func framePayload(tr *trace.Trace) []byte {
	return trace.AppendBinary(binary.AppendUvarint(nil, uint64(len(tr.Events))), tr)
}

// TestIngestFrameMatchesIngestTrace: applying fleet-shaped deltas as
// encoded frames and as decoded traces leaves the same store — every
// query answers byte for byte alike, failure samples included, and the
// snapshots are byte-identical. Several frames fail at the same site, so
// the reservoir replaces samples too. The frames shrink, so every frame decodes into the arena the first one
// grew: a sample that kept arena slices would be overwritten.
func TestIngestFrameMatchesIngestTrace(t *testing.T) {
	var frames []*trace.Trace
	for f := 0; f < 7; f++ {
		frames = append(frames, fleetTrace(uint64(f)*1000, 400-f*30, 13+f*17))
	}
	stores := [2]*Store{}
	for i := range stores {
		stores[i] = NewStore(StoreOpts{Seed: 5, SampleCap: 2, Window: 6})
		for _, tr := range frames {
			if i == 0 {
				if err := stores[i].IngestFrame("p", framePayload(tr)); err != nil {
					t.Fatal(err)
				}
			} else {
				stores[i].IngestTrace("p", tr)
			}
		}
	}
	if n := len(stores[0].Samples("lock")); n != 2 {
		t.Fatalf("%d samples kept, want the reservoir's 2", n)
	}
	for _, q := range []Query{{Q: "fleet"}, {Q: "failures"}, {Q: "topk", Class: "lock", K: 10}, {Q: "samples"}, {Q: "health"}} {
		frame, err := NewServer(stores[0], ServerOpts{}).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := NewServer(stores[1], ServerOpts{}).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, whole) {
			t.Fatalf("query %q: IngestFrame and IngestTrace answers differ\nframe: %s\ntrace: %s", q.Q, frame, whole)
		}
	}
	snaps := [2][]byte{}
	for i, s := range stores {
		b, err := json.Marshal(s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = b
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("IngestFrame and IngestTrace snapshots differ\nframe: %s\ntrace: %s", snaps[0], snaps[1])
	}
}

// TestSamplesReproducibleAcrossStores: reservoir draws depend on the seed
// and the site alone, nothing a store picks for itself, so three stores
// with one seed, fed the same frames, keep byte-identical samples and
// snapshots. Every process's failing site overflows the reservoir several
// times over.
func TestSamplesReproducibleAcrossStores(t *testing.T) {
	var stores []*Store
	for range 3 {
		s := NewStore(StoreOpts{Seed: 5, SampleCap: 2, Window: 4})
		for f := 0; f < 9; f++ {
			for _, proc := range []string{"p", "q", "r", "s", "t"} {
				if err := s.IngestFrame(proc, framePayload(fleetTrace(uint64(f)*1000, 200, 7+f*13))); err != nil {
					t.Fatal(err)
				}
			}
		}
		stores = append(stores, s)
	}
	var want []byte
	for i, s := range stores {
		samples, err := NewServer(s, ServerOpts{}).Answer(Query{Q: "samples"})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := json.Marshal(s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		got := append(samples, snap...)
		if i == 0 {
			want = got
			if n := len(s.Samples("lock")); n != 10 {
				t.Fatalf("%d samples kept, want 2 for each of 5 sites", n)
			}
		} else if !bytes.Equal(got, want) {
			t.Fatalf("store %d keeps different samples:\n%s\nwant\n%s", i, got, want)
		}
	}
}

// BenchmarkIngestFrame applies one 2000-event fleet-shaped frame per
// iteration, the server's per-frame apply without the wire, and reports
// the cost per event.
func BenchmarkIngestFrame(b *testing.B) {
	const n = 2000
	payload := framePayload(fleetTrace(0, n, 50))
	store := NewStore(StoreOpts{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.IngestFrame("p", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
}
