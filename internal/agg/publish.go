package agg

import (
	"time"

	"tesla/internal/trace"
)

// Publisher streams a live Recorder to a Client as delta traces: a
// trace.Flusher whose send frames each encoded delta through the same
// Client path as SendTrace, so the fleet store receives every event once —
// or an explicit drop count. The send copies the delta into the payload it
// queues and keeps nothing of the flusher's buffer, which is what lets
// every flush reuse it.
//
// Start's interval flushing (100ms unless given) keeps a long-running
// producer's window in the fleet view fresh, and keeps ring overwrites
// (which only a flush can outrun) near zero. Stop flushes one last time,
// so everything the run recorded is either streamed or counted lost.
type Publisher struct {
	*trace.Flusher
}

// NewPublisher pairs a recorder with a client.
func NewPublisher(rec *trace.Recorder, c *Client) *Publisher {
	return &Publisher{trace.NewFlusher(rec, 100*time.Millisecond, c.sendEncoded)}
}
