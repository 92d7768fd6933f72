package agg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"tesla/internal/trace"
)

// ResumeSpool delivers a crashed producer's offline spool and closes the
// accounting its crash left open. The crashed run's client write-ahead-
// logged every sequenced frame before sending it, so the spool is a
// superset of what the server received from that producer; the handshake
// returns the server's acked watermark, frames at or below it are
// skipped, the rest are resent (the server deduplicates, so resending
// into an unsnapshotted server that already applied them is also safe),
// and a bye carrying the full-spool totals finally closes the producer
// cleanly: ingested + dropped == sent holds again.
//
// A connection failure mid-resume returns an error with nothing lost —
// the spool is untouched and a retry is idempotent.

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
}

// ResumeOpts configures ResumeSpool.
type ResumeOpts struct {
	// Tool names the resuming program in the hello (default
	// "tesla-agg resend").
	Tool string

	// wrapConn is the same test seam as ClientOpts.wrapConn.
	wrapConn func(net.Conn) net.Conn
}

// ResumeSpool opens the spool directory (recovering any torn tail),
// replays it to addr as process, and sends the closing bye.
func ResumeSpool(addr, process, dir string, opts ResumeOpts) (ResumeStats, error) {
	if opts.Tool == "" {
		opts.Tool = "tesla-agg resend"
	}
	st := ResumeStats{Process: process}
	spool, err := trace.OpenSpool(dir, trace.SpoolOpts{Sync: trace.SpoolSyncNone})
	if err != nil {
		return st, err
	}
	defer spool.Close()

	conn, ack, err := dialHandshake(addr, Hello{
		Proto: ProtoVersion, Codec: trace.Version,
		Tool: opts.Tool, Process: process,
	}, opts.wrapConn)
	if err != nil {
		return st, err
	}
	defer conn.Close()

	// Drain the server's per-frame acks concurrently: an unread ack
	// stream would eventually fill the socket and wedge the server's
	// apply worker against our own writes — a resume-shaped deadlock.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		fr := trace.NewFrameReader(conn)
		for {
			if _, _, err := fr.Next(); err != nil {
				return
			}
		}
	}()

	fw := trace.NewFrameWriter(conn)
	err = spool.Range(func(payload []byte) error {
		seq, events, tracePayload, err := SeqTraceInfo(payload)
		if err != nil {
			return fmt.Errorf("agg: spool %s: %w", dir, err)
		}
		st.Frames++
		st.Events += events
		// The cut's ring-loss delta sits in the trace header; decode it
		// so the bye's RingDropped matches what the live client counted.
		_, n := binary.Uvarint(tracePayload)
		if tr, err := trace.Read(bytes.NewReader(tracePayload[n:])); err == nil {
			st.RingDropped += tr.Dropped
		}
		if seq <= ack.Ack {
			st.Skipped++
			return nil
		}
		if err := fw.Frame(FrameSeqTrace, payload); err != nil {
			return fmt.Errorf("agg: resend to %s: %w", addr, err)
		}
		st.Resent++
		return nil
	})
	if err != nil {
		return st, err
	}
	if st.Frames == 0 {
		return st, fmt.Errorf("agg: spool %s holds no frames", dir)
	}

	bye, _ := json.Marshal(Bye{
		SentFrames:  st.Frames,
		SentEvents:  st.Events,
		RingDropped: st.RingDropped,
	})
	if err := fw.Frame(FrameBye, bye); err != nil {
		return st, fmt.Errorf("agg: bye to %s: %w", addr, err)
	}
	// Linger until the server drains and closes its end, so the bye (and
	// the frames before it) cannot be destroyed by our close.
	select {
	case <-readerDone:
	case <-time.After(byeLinger):
		st.ByeLingerExpired++
	}
	return st, nil
}
