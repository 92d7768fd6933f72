package xnee

import (
	"reflect"
	"testing"

	"tesla/internal/gui"
	"tesla/internal/objc"
)

func TestDialogSessionDeterministic(t *testing.T) {
	a := DialogSession(32)
	b := DialogSession(32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sessions must replay identically")
	}
	if len(a.Batches) != 32 {
		t.Fatalf("batches = %d", len(a.Batches))
	}
	// Every 16th iteration is a complete redraw.
	exposes := 0
	for _, batch := range a.Batches {
		for _, ev := range batch {
			if ev.Kind == gui.Expose {
				exposes++
			}
		}
	}
	if exposes != 2 {
		t.Fatalf("exposes = %d", exposes)
	}
}

func TestReplayDrivesWindow(t *testing.T) {
	rt := objc.NewRuntime(objc.NoTracing)
	w := gui.NewWindow(rt, gui.NewOldBackend())
	w.AddView(gui.Rect{X: 0, Y: 0, W: 400, H: 300}, 1, 4, false)
	rl := gui.NewRunLoop(w, nil)
	Replay(rl, DialogSession(64))
	if w.Redraws == 0 {
		t.Fatal("replay produced no full redraws")
	}
	if rt.MsgCount == 0 {
		t.Fatal("replay produced no message sends")
	}
}

func TestCursorCrossingShape(t *testing.T) {
	s := CursorCrossing(gui.Rect{X: 0, Y: 0, W: 100, H: 100}, 2)
	if len(s.Batches) != 6 {
		t.Fatalf("batches = %d", len(s.Batches))
	}
	// The middle batch of each repeat carries the invalidation.
	if s.Batches[1][0].Kind != gui.Invalidate {
		t.Fatal("invalidate missing")
	}
}
