package agg

import (
	"encoding/binary"
	"fmt"
	"net"

	"tesla/internal/trace"
)

// ResumeSpool delivers a crashed producer's offline spool and closes the
// accounting its crash left open. The crashed run's client write-ahead-
// logged every sequenced frame before sending it, so the spool is a
// superset of what the server received from that producer. The resume is
// a Client built over the recovered spool: frames at or below the
// handshake's ack watermark count as already delivered, the rest replay
// through the writer's spool-reload path — with the Client's reconnects,
// retries and resend-until-acked — and Close sends a bye carrying the
// full-spool totals: ingested + dropped == sent holds again. The server
// deduplicates by sequence, so resending into a server that already
// applied a frame is safe.
//
// A frame that cannot be delivered returns an error before any bye is
// sent: the spool is untouched and a retry is idempotent.

// ResumeStats is what a completed resume delivered.
type ResumeStats struct {
	// Process is the producer identity the spool was replayed as.
	Process string
	// Frames and Events are the full-spool totals reported in the bye.
	Frames uint64
	Events uint64
	// RingDropped is the summed ring loss recorded in the spooled cuts.
	RingDropped uint64
	// Resent counts the frames actually rewritten (beyond the server's
	// ack watermark at handshake); Skipped were already acked durable.
	Resent  uint64
	Skipped uint64
	// ByeLingerExpired is 1 when the server never closed its end after
	// the bye within byeLinger: the bye was written, but whether the
	// server read it is unknown.
	ByeLingerExpired uint64
	// Recovered is what opening the spool repaired: frames in a torn
	// tail or past a corrupt segment are neither resent nor counted.
	Recovered trace.SpoolRecovery
}

// ResumeOpts configures ResumeSpool.
type ResumeOpts struct {
	// wrapConn is the same test seam as ClientOpts.wrapConn.
	wrapConn func(net.Conn) net.Conn
}

// ResumeSpool opens the spool directory (recovering any torn tail),
// replays it to addr as process, and sends the closing bye.
func ResumeSpool(addr, process, dir string, opts ResumeOpts) (ResumeStats, error) {
	st := ResumeStats{Process: process}
	spool, err := trace.OpenSpool(dir, trace.SpoolOpts{Sync: trace.SpoolSyncNone})
	if err != nil {
		return st, err
	}
	st.Recovered = spool.Recovered()
	if spool.FrameCount() == 0 {
		spool.Close()
		return st, fmt.Errorf("agg: spool %s holds no frames", dir)
	}
	c, conn, ack, err := connect(addr, ClientOpts{
		Tool: "tesla-agg resend", Process: process, Spool: spool, wrapConn: opts.wrapConn,
	})
	if err != nil {
		spool.Close()
		return st, err
	}

	// Tally the spool for the bye. The delivered prefix counts as sent
	// up front; the writer adds the rest as it replays them.
	var skippedEvents uint64
	var dec trace.Decoder
	err = spool.Range(func(payload []byte) error {
		seq, events, tracePayload, err := SeqTraceInfo(payload)
		if err != nil {
			return fmt.Errorf("agg: spool %s: %w", dir, err)
		}
		st.Frames++
		st.Events += events
		// The cut's ring-loss delta sits in the trace header, so the bye's
		// RingDropped matches what the live client counted.
		_, n := binary.Uvarint(tracePayload)
		if dec.Reset(tracePayload[n:]) == nil {
			st.RingDropped += dec.Dropped()
		}
		if seq <= ack {
			st.Skipped++
			skippedEvents += events
		}
		return nil
	})
	if err != nil {
		conn.Close()
		spool.Close()
		return st, err
	}
	c.sentFrames.Store(st.Skipped)
	c.sentEvents.Store(skippedEvents)
	c.ringDropped.Store(st.RingDropped)
	c.loadedSeq = ack
	c.spoolBehind, c.resumed = true, true
	go c.writer(conn)

	err = c.Close()
	cs := c.Stats()
	st.Resent = cs.SentFrames - st.Skipped
	st.ByeLingerExpired = cs.ByeLingerExpired
	if err != nil {
		return st, fmt.Errorf("agg: resend of %s to %s incomplete, spool left intact: %w", dir, addr, err)
	}
	return st, nil
}
