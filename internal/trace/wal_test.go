package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/faultinject"
)

// spoolFrames opens dir read-only and collects every recoverable payload.
func spoolFrames(t *testing.T, dir string) [][]byte {
	t.Helper()
	sp, err := OpenSpool(dir, SpoolOpts{Sync: SpoolSyncNone})
	if err != nil {
		t.Fatalf("reopen spool: %v", err)
	}
	defer sp.Close()
	var got [][]byte
	if err := sp.Range(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("range: %v", err)
	}
	return got
}

func TestSpoolAppendReadBack(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir, SpoolOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := bytes.Repeat([]byte{byte(i)}, i*13+1)
		want = append(want, p)
		if err := sp.Append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if sp.FrameCount() != 20 {
		t.Fatalf("FrameCount = %d, want 20", sp.FrameCount())
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := spoolFrames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %d frames, want %d, or contents differ", len(got), len(want))
	}
}

// TestSpoolSegmentRotation: tiny segments force rotation; order and
// contents survive, and reopening appends into the last segment.
func TestSpoolSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir, SpoolOpts{segmentBytes: 64, Sync: SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 30; i++ {
		p := []byte(fmt.Sprintf("frame-%02d-%s", i, bytes.Repeat([]byte{'x'}, i%11)))
		want = append(want, p)
		if err := sp.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	sp.Close()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected >=3 segments after rotation, got %d", len(segs))
	}

	// Reopen for append: recovery must find all frames and keep going.
	sp2, err := OpenSpool(dir, SpoolOpts{segmentBytes: 64, Sync: SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if rec := sp2.Recovered(); rec.Frames != 30 || rec.TruncatedBytes != 0 || len(rec.DroppedSegments) != 0 {
		t.Fatalf("clean reopen recovered %+v", rec)
	}
	p := []byte("post-recovery frame")
	want = append(want, p)
	if err := sp2.Append(p); err != nil {
		t.Fatal(err)
	}
	sp2.Close()
	if got := spoolFrames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation read-back mismatch: got %d frames want %d", len(got), len(want))
	}
}

// TestSpoolTornTailRecovery simulates a crash mid-append: every possible
// truncation point of the final segment must recover to a whole-frame
// prefix, and appending after recovery must work.
func TestSpoolTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir, SpoolOpts{Sync: SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 5; i++ {
		p := bytes.Repeat([]byte{byte('a' + i)}, 9)
		want = append(want, p)
		sp.Append(p)
	}
	sp.Close()
	seg := filepath.Join(dir, segName(1))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	frameLen := walFrameHeader + 9
	for cut := 0; cut <= len(whole); cut++ {
		if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		sp2, err := OpenSpool(dir, SpoolOpts{Sync: SpoolSyncNone})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		wantFrames := 0
		if cut >= walHeaderSize {
			wantFrames = (cut - walHeaderSize) / frameLen
		}
		var got [][]byte
		sp2.Range(func(p []byte) error { got = append(got, append([]byte(nil), p...)); return nil })
		if len(got) != wantFrames {
			t.Fatalf("cut=%d: recovered %d frames, want prefix of %d", cut, len(got), wantFrames)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut=%d: frame %d differs from what was appended", cut, i)
			}
		}
		// The repaired log must accept new appends at the boundary.
		if err := sp2.Append([]byte("resumed")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := sp2.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		after := spoolFrames(t, dir)
		if len(after) != wantFrames+1 || string(after[wantFrames]) != "resumed" {
			t.Fatalf("cut=%d: post-recovery append not readable", cut)
		}
	}
}

// TestSpoolMidSegmentCorruption: a flipped byte in an early segment ends
// the valid prefix there; later segments are dropped entirely.
func TestSpoolMidSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir, SpoolOpts{segmentBytes: 64, Sync: SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 20)
		want = append(want, p)
		sp.Append(p)
	}
	sp.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Flip one payload byte in the second segment.
	seg2 := filepath.Join(dir, segName(segs[1]))
	data, _ := os.ReadFile(seg2)
	data[walHeaderSize+walFrameHeader+3] ^= 0xff
	os.WriteFile(seg2, data, 0o644)

	sp2, err := OpenSpool(dir, SpoolOpts{Sync: SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	rec := sp2.Recovered()
	var dropped []string
	for _, seg := range segs[2:] {
		dropped = append(dropped, segName(seg))
	}
	if !reflect.DeepEqual(rec.DroppedSegments, dropped) || rec.TruncatedBytes == 0 {
		t.Fatalf("recovery stats %+v: expected truncated bytes and dropped segments %v", rec, dropped)
	}
	for _, name := range dropped {
		if !strings.Contains(rec.Note(), name) {
			t.Errorf("repair note %q does not name dropped segment %s", rec.Note(), name)
		}
	}
	var got [][]byte
	sp2.Range(func(p []byte) error { got = append(got, append([]byte(nil), p...)); return nil })
	sp2.Close()
	if len(got) >= len(want) || !reflect.DeepEqual(got, want[:len(got)]) {
		t.Fatalf("recovered %d frames is not a proper prefix of %d", len(got), len(want))
	}
	// Everything in segment 1 must have survived.
	perSeg := 0
	for off := walHeaderSize; off+walFrameHeader+20 <= 64 || perSeg == 0; off += walFrameHeader + 20 {
		perSeg++
		if off+2*(walFrameHeader+20) > 64+walFrameHeader+20 {
			break
		}
	}
	if len(got) == 0 {
		t.Fatal("corruption in segment 2 wiped segment 1")
	}
}

// TestSpoolReadReportsRepair: ReadSpool, tesla-trace's spool input, returns
// the repair beside the trace. With the middle of three or more segments
// corrupt, the trace is the frames before the corruption and the repair
// note names every dropped segment.
func TestSpoolReadReportsRepair(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir, SpoolOpts{segmentBytes: 128, Sync: SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 12; i++ {
		delta := &Trace{FormatVersion: Version, Automata: []string{"a"},
			Events: []Event{{Seq: i, Thread: 0, Kind: KindAccept, Class: "a"}}}
		if err := sp.Append(AppendBinary(nil, delta)); err != nil {
			t.Fatal(err)
		}
	}
	sp.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	mid := filepath.Join(dir, segName(segs[1]))
	data, _ := os.ReadFile(mid)
	data[len(data)-2] ^= 0xff
	os.WriteFile(mid, data, 0o644)

	tr, rec, err := ReadSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Events); n == 0 || n >= 12 || tr.Events[n-1].Seq != uint64(n) {
		t.Fatalf("recovered %d events, want a proper prefix of 12", n)
	}
	note := rec.Note()
	if rec.TruncatedBytes == 0 || len(rec.DroppedSegments) != len(segs)-2 {
		t.Fatalf("repair %+v: want truncated bytes and %d dropped segments", rec, len(segs)-2)
	}
	for _, seg := range segs[2:] {
		if !strings.Contains(note, segName(seg)) {
			t.Errorf("repair note %q does not name dropped segment %s", note, segName(seg))
		}
	}
}

// TestSpoolReadRejectsOutOfOrder: every cut is a Seq-prefix, so a spool
// whose deltas were appended out of Seq order breaks the SpoolWriter's
// contract. ReadSpool reports the frame that breaks it instead of
// sorting the events back into order.
func TestSpoolReadRejectsOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir, SpoolOpts{Sync: SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, seqs := range [][]uint64{{3, 4}, {1, 2}} {
		delta := &Trace{FormatVersion: Version, Automata: []string{"a"}}
		for _, seq := range seqs {
			delta.Events = append(delta.Events, Event{Seq: seq, Thread: 0, Kind: KindAccept, Class: "a"})
		}
		if err := sp.Append(AppendBinary(nil, delta)); err != nil {
			t.Fatal(err)
		}
	}
	sp.Close()
	tr, _, err := ReadSpool(dir)
	if err == nil {
		t.Fatalf("ReadSpool accepted deltas appended out of order: %d events", len(tr.Events))
	}
	if !strings.Contains(err.Error(), "frame 2") {
		t.Fatalf("error %q does not name the out-of-order frame 2", err)
	}
}

// TestSpoolWriteFaults: injected write failures (internal/faultinject
// SiteWALWrite) skip exactly the faulted frames, leave the log valid and
// do not poison subsequent appends.
func TestSpoolWriteFaults(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(7)
	inj.SetEvery(faultinject.SiteWALWrite, 3)
	sp, err := OpenSpool(dir, SpoolOpts{
		Sync: SpoolSyncNone,
		WriteFault: func(int) error {
			if inj.Should(faultinject.SiteWALWrite, "seg") {
				return errors.New("injected write fault")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	var faults int
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("frame-%d", i))
		if err := sp.Append(p); err != nil {
			faults++
		} else {
			want = append(want, p)
		}
	}
	sp.Close()
	if faults != 3 {
		t.Fatalf("faults = %d, want 3 (every 3rd of 10)", faults)
	}
	if got := spoolFrames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("surviving frames differ: got %d want %d", len(got), len(want))
	}
}

// TestSpoolSyncFaults: a failed fsync surfaces the error (the caller
// accounts the frame as potentially lost) but the bytes already written
// stay readable — recovery may deliver more than the conservative
// accounting promised, never less.
func TestSpoolSyncFaults(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(7)
	inj.SetEvery(faultinject.SiteWALSync, 2)
	sp, err := OpenSpool(dir, SpoolOpts{
		Sync: SpoolSyncAlways,
		SyncFault: func() error {
			if inj.Should(faultinject.SiteWALSync, "seg") {
				return errors.New("injected sync fault")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var errs int
	for i := 0; i < 6; i++ {
		if err := sp.Append([]byte{byte(i)}); err != nil {
			errs++
		}
	}
	sp.opts.SyncFault = nil
	sp.Close()
	if errs != 3 {
		t.Fatalf("sync errors = %d, want 3", errs)
	}
	if got := spoolFrames(t, dir); len(got) != 6 {
		t.Fatalf("recovered %d frames, want all 6 (sync failure does not unwrite)", len(got))
	}
}

// TestSpoolWriter: a live recorder streamed through a SpoolWriter must
// recover (ReadSpool) to exactly the recorder's own snapshot — same
// events, same order, same loss accounting.
func TestSpoolWriter(t *testing.T) {
	autos := []*automata.Automaton{{Name: "a"}}
	cls := &core.Class{Name: "a", States: 4, Limit: 4}
	rec := NewRecorder(autos, 0)
	sp, err := OpenSpool(t.TempDir(), SpoolOpts{Sync: SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	w := NewSpoolWriter(rec, sp)
	for i := 0; i < 137; i++ {
		rec.Transition(cls, &core.Instance{Key: core.AnyKey.Set(0, core.Value(i))}, 0, 1, "sym")
		if i%17 == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Stop(); err != nil {
		t.Fatal(err)
	}
	if lf, le := w.Lost(); lf != 0 || le != 0 {
		t.Fatalf("lost %d frames / %d events on a healthy spool", lf, le)
	}
	sp.Close()

	got, repair, err := ReadSpool(sp.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if note := repair.Note(); note != "" {
		t.Fatalf("intact spool reported a repair: %s", note)
	}
	want := rec.Snapshot()
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("recovered %d events != snapshot %d", len(got.Events), len(want.Events))
	}
	if got.Dropped != want.Dropped || !reflect.DeepEqual(got.Automata, want.Automata) {
		t.Fatalf("recovered metadata differs: dropped %d/%d automata %v/%v",
			got.Dropped, want.Dropped, got.Automata, want.Automata)
	}
}

// TestSpoolWriterLossAccounting: append failures surface in Lost() — the
// delta is discarded, never silently retried into a double-append.
func TestSpoolWriterLossAccounting(t *testing.T) {
	autos := []*automata.Automaton{{Name: "a"}}
	cls := &core.Class{Name: "a", States: 4, Limit: 4}
	rec := NewRecorder(autos, 0)
	fail := false
	sp, err := OpenSpool(t.TempDir(), SpoolOpts{
		Sync: SpoolSyncNone,
		WriteFault: func(int) error {
			if fail {
				return errors.New("injected")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := NewSpoolWriter(rec, sp)
	for i := 0; i < 10; i++ {
		rec.Accept(cls, &core.Instance{Key: core.AnyKey.Set(0, core.Value(i))})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		rec.Accept(cls, &core.Instance{Key: core.AnyKey.Set(0, core.Value(100+i))})
	}
	fail = true
	if err := w.Flush(); err == nil {
		t.Fatal("flush over a failing spool succeeded")
	}
	fail = false
	if lf, le := w.Lost(); lf != 1 || le != 7 {
		t.Fatalf("Lost() = %d frames / %d events, want 1 / 7", lf, le)
	}
	sp.Close()
	got, repair, err := ReadSpool(sp.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if note := repair.Note(); note != "" {
		t.Fatalf("intact spool reported a repair: %s", note)
	}
	if len(got.Events) != 10 {
		t.Fatalf("spool holds %d events, want the 10 from the successful flush", len(got.Events))
	}
}

// FuzzSpoolRecover builds a known-good spool, then truncates and
// bit-flips it the way torn writes and disk corruption would, and
// asserts the two recovery invariants: OpenSpool never panics, and what
// it yields is always a verbatim frame prefix of what was appended.
// Recovery must also be idempotent: reopening a repaired spool yields
// the same frames with nothing further to repair.
func FuzzSpoolRecover(f *testing.F) {
	f.Add(uint8(4), uint32(20), uint8(0xff), uint32(1<<30))
	f.Add(uint8(1), uint32(0), uint8(1), uint32(5))
	f.Add(uint8(7), uint32(9), uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, nFrames uint8, mutPos uint32, mutVal uint8, cutAt uint32) {
		dir := t.TempDir()
		sp, err := OpenSpool(dir, SpoolOpts{Sync: SpoolSyncNone})
		if err != nil {
			t.Fatal(err)
		}
		n := int(nFrames%8) + 1
		var want [][]byte
		for i := 0; i < n; i++ {
			p := bytes.Repeat([]byte{byte(i + 1)}, (i*37)%120+1)
			want = append(want, p)
			if err := sp.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		sp.Close()

		seg := filepath.Join(dir, segName(1))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			data[int(mutPos)%len(data)] ^= mutVal
		}
		if cut := int(cutAt) % (len(data) + 1); cut < len(data) {
			data = data[:cut]
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}

		check := func(pass string) int {
			sp2, err := OpenSpool(dir, SpoolOpts{Sync: SpoolSyncNone})
			if err != nil {
				t.Fatalf("%s: open: %v", pass, err)
			}
			defer sp2.Close()
			i := 0
			err = sp2.Range(func(p []byte) error {
				if i >= len(want) || !bytes.Equal(p, want[i]) {
					t.Fatalf("%s: frame %d is not the appended frame — recovery is not a prefix", pass, i)
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatalf("%s: range: %v", pass, err)
			}
			if got := sp2.FrameCount(); got != uint64(i) {
				t.Fatalf("%s: FrameCount %d != ranged %d", pass, got, i)
			}
			return i
		}
		first := check("first open")
		second := check("reopen")
		if first != second {
			t.Fatalf("recovery not idempotent: %d then %d frames", first, second)
		}
	})
}
