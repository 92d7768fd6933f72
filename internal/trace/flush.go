package trace

import (
	"sync"
	"time"
)

// Flusher streams a live Recorder as encoded delta traces: each flush cuts
// exactly the events recorded since the previous one, with per-delta loss
// accounting, encodes them straight from the recorder's rings
// (Recorder.AppendCut) and hands every non-empty delta to a send function
// as its binary trace, event count and Dropped. It is the one interval cut
// loop behind SpoolWriter (send appends to a write-ahead spool) and
// agg.Publisher (send streams to a fleet server).
//
// Every flush encodes into the same buffer, so send must be done with the
// bytes when it returns: a steady flush cadence then reads each event once,
// from its ring slot, into memory the flusher already owns.
type Flusher struct {
	rec      *Recorder
	send     func(delta []byte, events, dropped uint64) error
	interval time.Duration

	// mu serialises flushes and is held across send: the bytes send is
	// given are the ones the next flush overwrites.
	mu  sync.Mutex
	cut Cut
	buf []byte

	stop chan struct{}
	done chan struct{}
}

// NewFlusher pairs a recorder with a send function; interval is the
// period Start uses when it is given none.
func NewFlusher(rec *Recorder, interval time.Duration, send func(delta []byte, events, dropped uint64) error) *Flusher {
	return &Flusher{rec: rec, send: send, interval: interval}
}

// Flush cuts and sends the delta since the last flush. Empty deltas send
// nothing.
func (f *Flusher) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var events, dropped uint64
	f.buf, events, dropped = f.rec.AppendCut(f.buf[:0], &f.cut)
	if events == 0 && dropped == 0 {
		return nil
	}
	return f.send(f.buf, events, dropped)
}

// Start flushes every interval (the flusher's default when <= 0) until
// Stop.
func (f *Flusher) Start(interval time.Duration) {
	if interval <= 0 {
		interval = f.interval
	}
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				f.Flush()
			case <-f.stop:
				return
			}
		}
	}()
}

// Stop ends the interval flusher (if started) and performs a final flush,
// so everything the run recorded is either sent or counted lost.
func (f *Flusher) Stop() error {
	if f.stop != nil {
		close(f.stop)
		<-f.done
	}
	return f.Flush()
}
