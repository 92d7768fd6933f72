package agg

import (
	"sync"
	"time"

	"tesla/internal/trace"
)

// Publisher streams a live Recorder to a Client as delta traces: each
// flush cuts exactly the events recorded since the previous flush
// (trace.Recorder.CutInto), with per-delta loss accounting, so the
// fleet store receives every event once — or an explicit drop count.
//
// Every flush cuts into the same delta, which is safe because SendTrace
// encodes synchronously and keeps nothing of it: steady-state flushing
// copies each event once, into memory the publisher already owns.
type Publisher struct {
	rec *trace.Recorder
	c   *Client

	mu    sync.Mutex
	cut   trace.Cut
	delta trace.Trace

	stop chan struct{}
	done chan struct{}
}

// NewPublisher pairs a recorder with a client.
func NewPublisher(rec *trace.Recorder, c *Client) *Publisher {
	return &Publisher{rec: rec, c: c}
}

// Flush cuts and sends the delta since the last flush. Empty deltas send
// nothing.
func (p *Publisher) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rec.CutInto(&p.cut, &p.delta)
	if len(p.delta.Events) == 0 && p.delta.Dropped == 0 {
		return nil
	}
	return p.c.SendTrace(&p.delta)
}

// Start flushes on an interval until Stop. Live flushing is what keeps a
// long-running producer's window in the fleet view fresh, and what keeps
// ring overwrites (which only a flush can outrun) near zero.
func (p *Publisher) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.Flush()
			case <-p.stop:
				return
			}
		}
	}()
}

// Stop ends the interval flusher (if started) and performs a final flush,
// so everything the run recorded is either streamed or counted lost.
func (p *Publisher) Stop() error {
	if p.stop != nil {
		close(p.stop)
		<-p.done
	}
	return p.Flush()
}
