package trace

import (
	"sync"
	"time"
)

// Flusher streams a live Recorder as delta traces: each flush cuts exactly
// the events recorded since the previous one (Recorder.CutInto), with
// per-delta loss accounting, and hands every non-empty delta to a send
// function. It is the one interval cut loop behind SpoolWriter (send
// appends to a write-ahead spool) and agg.Publisher (send streams to a
// fleet server).
//
// Every flush cuts into the same delta, so send must be done with it when
// it returns: a steady flush cadence then copies each event once, into
// memory the flusher already owns.
type Flusher struct {
	rec      *Recorder
	send     func(*Trace) error
	interval time.Duration

	// mu serialises flushes and is held across send: the delta send is
	// given is the one the next flush refills.
	mu    sync.Mutex
	cut   Cut
	delta Trace

	stop chan struct{}
	done chan struct{}
}

// NewFlusher pairs a recorder with a send function; interval is the
// period Start uses when it is given none.
func NewFlusher(rec *Recorder, interval time.Duration, send func(*Trace) error) *Flusher {
	return &Flusher{rec: rec, send: send, interval: interval}
}

// Flush cuts and sends the delta since the last flush. Empty deltas send
// nothing.
func (f *Flusher) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rec.CutInto(&f.cut, &f.delta)
	if len(f.delta.Events) == 0 && f.delta.Dropped == 0 {
		return nil
	}
	return f.send(&f.delta)
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
