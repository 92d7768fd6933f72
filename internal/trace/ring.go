package trace

// ring is a bounded append-only event buffer that overwrites its oldest
// entries when full. Bounding memory per thread is what makes always-on
// tracing viable in the kernel configurations the paper targets: a hot
// thread can emit millions of events, but debugging a violation only ever
// needs the recent window that led to it.
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

func (r *ring) push(ev Event) {
	r.pushed++
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
}

// cutSince appends the events pushed after the prevPushed watermark to
// dst and returns the count of events that were pushed after the
// watermark but already overwritten — exactly the loss a delta consumer
// must account for. Push order, not sequence order, defines the
// watermark, so an event can never land behind a cut and be skipped
// silently.
func (r *ring) cutSince(prevPushed uint64, dst []Event) ([]Event, uint64) {
	oldest := r.pushed - uint64(r.n)
	from := prevPushed
	var lost uint64
	if from < oldest {
		lost = oldest - from
		from = oldest
	}
	for p := from; p < r.pushed; p++ {
		dst = append(dst, r.buf[(r.start+int(p-oldest))%len(r.buf)])
	}
	return dst, lost
}
