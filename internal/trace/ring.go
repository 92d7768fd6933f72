package trace

// ring is a bounded append-only event buffer that overwrites its oldest
// entries when full. Bounding memory per thread is what makes always-on
// tracing viable in the kernel configurations the paper targets: a hot
// thread can emit millions of events, but debugging a violation only ever
// needs the recent window that led to it.
//
// A ring is Seq-ordered: its writers take each event's Seq under the lock
// that guards the ring and fill the slot before releasing it, so slots in
// push order carry ascending Seqs.
type ring struct {
	buf   []Event
	start int // index of the oldest event
	n     int // live events
	// pushed counts every event ever pushed, including those since
	// overwritten: it is the ring's logical write position, which lets a
	// cut (Recorder.CutInto) take exactly the events after a watermark
	// and account exactly for the ones the ring overwrote in between.
	pushed uint64
}

// defaultRingCap bounds each ring when the caller does not choose a size.
const defaultRingCap = 1 << 16

func newRing(capacity int) *ring {
	if capacity <= 0 {
		capacity = defaultRingCap
	}
	return &ring{buf: make([]Event, capacity)}
}

// next pushes one event and returns its slot for the caller to fill in
// place. The slot still holds whatever event it held before (the one
// overwritten, or the zero Event), so the caller must write every field a
// previous event of the ring could have set.
func (r *ring) next() *Event {
	r.pushed++
	i := r.start + r.n
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.start++
		if r.start == len(r.buf) {
			r.start = 0
		}
	}
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// since returns the events pushed after the prevPushed watermark, oldest
// first, as up to two contiguous runs of the buffer (b is non-empty only
// when the events wrap around its end), and the count of events that were
// pushed after the watermark but already overwritten — exactly the loss a
// delta consumer must account for. Push order, not sequence order,
// defines the watermark, so an event can never land behind a cut and be
// skipped silently.
func (r *ring) since(prevPushed uint64) (a, b []Event, lost uint64) {
	oldest := r.pushed - uint64(r.n)
	from := prevPushed
	if from < oldest {
		lost = oldest - from
		from = oldest
	}
	if from >= r.pushed {
		return nil, nil, lost
	}
	i := r.start + int(from-oldest)
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	k := int(r.pushed - from)
	if i+k <= len(r.buf) {
		return r.buf[i : i+k], nil, lost
	}
	return r.buf[i:], r.buf[:i+k-len(r.buf)], lost
}
