// Package gui is a miniature GNUstep-style rendering engine: a view/cell
// hierarchy dispatched through the objc runtime, a PostScript-like graphics
// state machine, a cursor stack driven by tracking rectangles, and a run
// loop. It reproduces both §3.5.3 bugs — cursors pushed onto the cursor
// stack multiple times because mouse-entered events were not correctly
// paired with mouse-exited events, and a new back-end library unable to
// save and restore graphics states in a non-LIFO order.
package gui

import "tesla/internal/core"

// Rect is a drawing rectangle.
type Rect struct {
	X, Y, W, H int64
}

// Contains reports whether the point is inside the rectangle.
func (r Rect) Contains(x, y int64) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// GState is the graphics state various attributes are set into
// independently — stroke colour, transform, current location — so the
// behaviour of a single draw call depends on many previous calls (§2.3).
type GState struct {
	Color  int64
	TX, TY int64
}

// Backend renders drawing commands. Save returns a token; RestoreToken
// restores directly to a saved token — a non-LIFO operation the old back
// end supports and the new one mishandles.
type Backend interface {
	Name() string
	Save() core.Value
	Restore()
	RestoreToken(tok core.Value)
	SetColor(c int64)
	Translate(x, y int64)
	DrawRect(r Rect)
	// Checksum summarises everything drawn: two backends that rendered
	// the same picture agree.
	Checksum() int64
	Reset()
}

// oldBackend is the original, correct back end: saved states are snapshots
// addressable by token, so restores may arrive in any order.
type oldBackend struct {
	cur    GState
	stack  []GState
	chk    int64
	tokens map[core.Value]GState
	nextTk core.Value
}

// NewOldBackend creates the correct (non-LIFO-capable) back end.
func NewOldBackend() Backend {
	return &oldBackend{tokens: map[core.Value]GState{}}
}

func (b *oldBackend) Name() string { return "old" }

func (b *oldBackend) Save() core.Value {
	b.stack = append(b.stack, b.cur)
	b.nextTk++
	b.tokens[b.nextTk] = b.cur
	return b.nextTk
}

func (b *oldBackend) Restore() {
	if n := len(b.stack); n > 0 {
		b.cur = b.stack[n-1]
		b.stack = b.stack[:n-1]
	}
}

func (b *oldBackend) RestoreToken(tok core.Value) {
	if st, ok := b.tokens[tok]; ok {
		b.cur = st
		// Unwind the LIFO stack past the snapshot as well.
		if n := len(b.stack); n > 0 {
			b.stack = b.stack[:n-1]
		}
	}
}

func (b *oldBackend) SetColor(c int64)     { b.cur.Color = c }
func (b *oldBackend) Translate(x, y int64) { b.cur.TX += x; b.cur.TY += y }

func (b *oldBackend) DrawRect(r Rect) {
	b.chk = mix(b.chk, b.cur.Color, b.cur.TX+r.X, b.cur.TY+r.Y, r.W, r.H)
}

func (b *oldBackend) Checksum() int64 { return b.chk }

func (b *oldBackend) Reset() {
	*b = oldBackend{tokens: map[core.Value]GState{}}
}

// newBackend is the §3.5.3 buggy back end: its author was not aware that
// restoring graphics states in a non-LIFO order is a valid sequence of
// operations, so RestoreToken ignores the token and pops the top of a pure
// stack — leaving the wrong state current.
type newBackend struct {
	cur   GState
	stack []GState
	chk   int64
	next  core.Value
}

// NewNewBackend creates the buggy LIFO-only back end.
func NewNewBackend() Backend { return &newBackend{} }

func (b *newBackend) Name() string { return "new" }

func (b *newBackend) Save() core.Value {
	b.stack = append(b.stack, b.cur)
	b.next++
	return b.next
}

func (b *newBackend) Restore() {
	if n := len(b.stack); n > 0 {
		b.cur = b.stack[n-1]
		b.stack = b.stack[:n-1]
	}
}

func (b *newBackend) RestoreToken(core.Value) {
	// BUG: assumes LIFO; the token is ignored.
	b.Restore()
}

func (b *newBackend) SetColor(c int64)     { b.cur.Color = c }
func (b *newBackend) Translate(x, y int64) { b.cur.TX += x; b.cur.TY += y }

func (b *newBackend) DrawRect(r Rect) {
	b.chk = mix(b.chk, b.cur.Color, b.cur.TX+r.X, b.cur.TY+r.Y, r.W, r.H)
}

func (b *newBackend) Checksum() int64 { return b.chk }
func (b *newBackend) Reset()          { *b = newBackend{} }

func mix(acc int64, vals ...int64) int64 {
	for _, v := range vals {
		acc = acc*1000003 + v
	}
	return acc
}

// Cursor identifiers. 1 is the arrow, the default cursor, which no
// tracking rectangle sets.
const (
	CursorIBeam int64 = iota + 2
	CursorHand
)
