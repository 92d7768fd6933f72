package agg

import (
	"time"

	"tesla/internal/trace"
)

// Publisher streams a live Recorder to a Client as delta traces: a
// trace.Flusher whose send is Client.SendTrace, so the fleet store
// receives every event once — or an explicit drop count. SendTrace
// encodes synchronously and keeps nothing of the delta, which is what
// lets every flush reuse it.
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
	return &Publisher{trace.NewFlusher(rec, 100*time.Millisecond, c.SendTrace)}
}
