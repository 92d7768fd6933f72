// Package xnee is a GNU Xnee-style X11 event replayer: the paper
// uses Xnee to replay X11 events and interact with dialog boxes for the
// figure 14b redraw-time measurements. This implementation generates and
// replays deterministic event scripts against the gui substrate.
package xnee

import "tesla/internal/gui"

// Script is a recorded interaction session: batches of events, one batch
// per run-loop iteration.
type Script struct {
	Batches [][]gui.Event
}

// DialogSession synthesises the paper's workload — interacting with dialog
// boxes: pointer movement across widgets (tracking rectangles), clicks that
// repaint portions of the window, and occasional complete redraws.
func DialogSession(iterations int) *Script {
	s := &Script{}
	// A deterministic LCG so every run replays identically.
	seed := int64(20131001)
	next := func(n int64) int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		v := (seed >> 33) % n
		if v < 0 {
			v += n
		}
		return v
	}
	for i := 0; i < iterations; i++ {
		var batch []gui.Event
		// Pointer glide: a few moves.
		x, y := next(400), next(300)
		for m := 0; m < 4; m++ {
			batch = append(batch, gui.Event{Kind: gui.MouseMove, X: x + int64(m)*7, Y: y + int64(m)*3})
		}
		// Most iterations click (partial repaint); every 16th exposes
		// the whole window (the fig. 14b outliers).
		if i%16 == 15 {
			batch = append(batch, gui.Event{Kind: gui.Expose})
		} else {
			batch = append(batch, gui.Event{Kind: gui.Click, X: x, Y: y})
		}
		s.Batches = append(s.Batches, batch)
	}
	return s
}

// CursorCrossing synthesises the §3.5.3 cursor-bug trigger: the pointer
// enters a tracking rectangle, the rectangles are invalidated (a scroll)
// while the pointer stays inside, and the pointer wiggles — a buggy run
// loop re-enters and pushes the same cursor a second time before the
// single exit.
func CursorCrossing(rect gui.Rect, repeats int) *Script {
	s := &Script{}
	inX, inY := rect.X+1, rect.Y+1
	outX := rect.X + rect.W + 5
	for i := 0; i < repeats; i++ {
		s.Batches = append(s.Batches,
			[]gui.Event{{Kind: gui.MouseMove, X: inX, Y: inY}}, // enter
			[]gui.Event{ // scroll + wiggle, same batch
				{Kind: gui.Invalidate},
				{Kind: gui.MouseMove, X: inX + 2, Y: inY},
			},
			[]gui.Event{{Kind: gui.MouseMove, X: outX, Y: inY}}, // leave
		)
	}
	return s
}

// Replay drives the script through the run loop, one batch per iteration.
func Replay(rl *gui.RunLoop, s *Script) {
	for _, b := range s.Batches {
		rl.ProcessBatch(b)
	}
}
