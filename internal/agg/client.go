package agg

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tesla/internal/core"
	"tesla/internal/trace"
)

// Client is the producer side of the wire protocol: it streams delta
// traces to a tesla-agg server without ever blocking the monitored
// program. Sends enqueue pre-encoded frames into a bounded buffer
// drained by one writer goroutine; a broken connection is retried with
// backoff while the buffer absorbs the outage, and when the buffer
// overflows or retries exhaust, frames are dropped and counted — the
// monitored process degrades explicitly (exit 3 via Degraded), it never
// stalls and never lies.
//
// Proto v2 makes delivery exactly-once. Every trace frame carries a
// monotonic sequence number; sent frames are retained until the server
// acks them and are resent after a reconnect (the server deduplicates by
// sequence, so the resend of a frame whose write "failed" after actually
// reaching the wire — the classic double-count — is ingested once). The
// bye is only written after the unacked set has been resent on the same
// connection, so a bye's arrival implies every counted-sent frame
// arrived: ingested + dropped == sent holds exactly for clean producers,
// across arbitrary crash/reconnect interleavings.
//
// With ClientOpts.Spool set, every trace frame is write-ahead-logged to
// disk before it is queued, and frames the bounded buffer cannot hold
// overflow to the spool instead of being dropped (the writer reads them
// back in order once the queue drains). A producer crash then loses
// nothing durable: `tesla-agg resend` replays the spool and closes the
// accounting the crash left open.
type Client struct {
	opts ClientOpts
	addr string

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds unsent frames, in order. unacked holds sequenced
	// frames that were written to some connection but not yet covered by
	// an ack watermark; a reconnect resends them before anything newer.
	queue   []wireFrame
	unacked []wireFrame
	nextSeq uint64 // last sequence assigned
	acked   uint64 // highest server-acked sequence
	// loadedSeq is the highest sequence handed toward the wire (queued
	// in memory or reloaded from the spool); spoolBehind marks that
	// frames beyond it live only in the spool and the writer must read
	// them back before sending anything newer.
	loadedSeq   uint64
	spoolBehind bool
	closed      bool
	// resumed marks a client replaying a crashed run's spool: it must not
	// close that run's accounting with a degraded bye, so the first frame
	// it cannot deliver ends the writer without one (the spool keeps every
	// frame for a retry).
	resumed bool

	done chan struct{}

	sentFrames    atomic.Uint64
	sentEvents    atomic.Uint64
	droppedFrames atomic.Uint64
	droppedEvents atomic.Uint64
	ringDropped   atomic.Uint64
	reconnects    atomic.Uint64
	spoolFaults   atomic.Uint64
	lingerExpiry  atomic.Uint64
	byeSent       atomic.Bool

	// perEvent is the encoded bytes per event of the last sizeable
	// frame, the capacity estimate for the next payload.
	perEvent atomic.Int64
}

// ClientOpts configures a Client.
type ClientOpts struct {
	// Tool and Process identify the producer in the hello frame. With a
	// spool, Process must be stable across restarts (it keys server-side
	// dedup); tesla-run's host:pid default is not — pass an explicit one.
	Tool    string
	Process string
	// Buffer bounds the frames pending in memory while the connection is
	// down or slow (default 256).
	Buffer int
	// retries bounds reconnection attempts per frame (default 4), and
	// backoff is the base reconnect delay, doubled per attempt (default
	// 50ms). Only tests change them.
	retries int
	backoff time.Duration
	// Spool, when set, is the client's offline write-ahead spool. It
	// must be empty at Dial (a leftover spool belongs to a crashed run:
	// replay it with tesla-agg resend, don't mix two runs' events). The
	// client takes ownership and closes it on Close.
	Spool *trace.Spool

	// wrapConn is a test seam: when set, every dialed connection is
	// wrapped before use, so tests can inject byte-level connection
	// faults (e.g. a write that reaches the wire and then reports an
	// error — the double-count regression).
	wrapConn func(net.Conn) net.Conn
}

// ClientStats is a client's self-accounting; Bye ships it to the server.
type ClientStats struct {
	SentFrames    uint64
	SentEvents    uint64
	DroppedFrames uint64
	DroppedEvents uint64
	RingDropped   uint64
	Reconnects    uint64
	// SpoolFaults counts frames whose write-ahead append failed; they
	// were still sent from memory, but a crash before delivery would
	// lose them (reduced durability, not reduced delivery).
	SpoolFaults uint64
	// ByeLingerExpired counts closes that gave up waiting for the server
	// to close its end after the bye (see byeLinger): the bye was
	// written, but whether the server read it is unknown.
	ByeLingerExpired uint64
}

// byeLinger bounds how long a producer waits, after writing its bye, for
// the server to drain and close its end. A variable so tests can shorten it.
var byeLinger = 10 * time.Second

// Degraded reports whether the client lost anything: a producer whose
// run was otherwise clean must exit 3 when this is set.
func (s ClientStats) Degraded() bool { return s.DroppedFrames|s.DroppedEvents != 0 }

type wireFrame struct {
	kind    byte
	payload []byte
	events  uint64
	seq     uint64 // 0 for unsequenced (health) frames
}

// Dial connects to a tesla-agg server and completes the handshake
// synchronously, so version rejections surface immediately as errors
// naming both sides. The returned client owns the connection (and the
// spool, when one is configured).
func Dial(addr string, opts ClientOpts) (*Client, error) {
	if opts.Spool != nil && opts.Spool.FrameCount() > 0 {
		return nil, fmt.Errorf("agg: spool %s is not empty — it belongs to an earlier run; deliver it with `tesla-agg resend` before reusing the directory", opts.Spool.Dir())
	}
	c, conn, _, err := connect(addr, opts)
	if err != nil {
		return nil, err
	}
	go c.writer(conn)
	return c, nil
}

// connect applies the option defaults and completes the handshake,
// returning a client whose writer is not yet running, its connection and
// the server's ack watermark.
func connect(addr string, opts ClientOpts) (*Client, net.Conn, uint64, error) {
	if opts.Buffer <= 0 {
		opts.Buffer = 256
	}
	if opts.retries <= 0 {
		opts.retries = 4
	}
	if opts.backoff <= 0 {
		opts.backoff = 50 * time.Millisecond
	}
	c := &Client{opts: opts, addr: addr, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	conn, ack, err := dialHandshake(addr, Hello{
		Proto: ProtoVersion, Codec: trace.Version,
		Tool: opts.Tool, Process: opts.Process,
	}, opts.wrapConn)
	if err != nil {
		return nil, nil, 0, err
	}
	c.noteAck(ack.Ack)
	return c, conn, ack.Ack, nil
}

// dialHandshake dials addr, sends the magic and hello, and waits for the
// ack. Shared by the client and the query CLI path.
func dialHandshake(addr string, hello Hello, wrap func(net.Conn) net.Conn) (net.Conn, HelloAck, error) {
	network, address := SplitAddr(addr)
	conn, err := net.Dial(network, address)
	if err != nil {
		return nil, HelloAck{}, err
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	helloJSON, _ := json.Marshal(hello)
	fw := trace.NewFrameWriter(conn)
	if _, err := conn.Write([]byte(Magic)); err != nil {
		conn.Close()
		return nil, HelloAck{}, err
	}
	if err := fw.Frame(FrameHello, helloJSON); err != nil {
		conn.Close()
		return nil, HelloAck{}, err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	kind, payload, err := trace.NewFrameReader(conn).Next()
	if err != nil || kind != FrameHelloAck {
		conn.Close()
		return nil, HelloAck{}, fmt.Errorf("agg: no hello ack from %s: %v", addr, err)
	}
	var ack HelloAck
	if err := json.Unmarshal(payload, &ack); err != nil {
		conn.Close()
		return nil, HelloAck{}, fmt.Errorf("agg: bad hello ack from %s: %w", addr, err)
	}
	if !ack.OK {
		conn.Close()
		return nil, HelloAck{}, fmt.Errorf("agg: %s rejected the connection: %s", addr, ack.Message)
	}
	conn.SetReadDeadline(time.Time{})
	return conn, ack, nil
}

// SendTrace encodes tr as one sequenced trace frame, write-ahead-logs it
// when a spool is configured, and enqueues it. It never blocks: a full
// buffer overflows to the spool (when present) or drops the frame,
// counted.
//
// The encode is synchronous and keeps nothing of tr: the caller may
// refill tr.Events as soon as SendTrace returns. The delta is encoded
// once, straight into the payload that is queued, resent and spooled.
func (c *Client) SendTrace(tr *trace.Trace) error {
	n := len(tr.Events)
	buf := trace.AppendBinary(seqBody(make([]byte, 0, seqRoom+256+n*int(c.perEvent.Load())), uint64(n)), tr)
	if n >= 64 {
		// Size the next payload from this one, so an encode normally fills
		// its allocation without regrowing it.
		c.perEvent.Store(int64(len(buf)/n + 1))
	}
	return c.sendBody(buf, uint64(n), tr.Dropped)
}

// sendEncoded is Publisher's send: delta is a trace.Flusher's binary
// encoding of a cut of events events, which the flusher overwrites on its
// next cut, so it is copied once into a payload of its own.
func (c *Client) sendEncoded(delta []byte, events, dropped uint64) error {
	buf := seqBody(make([]byte, 0, seqRoom+binary.MaxVarintLen64+len(delta)), events)
	return c.sendBody(append(buf, delta...), events, dropped)
}

// sendBody is the one send path behind SendTrace and sendEncoded: buf is a
// FrameSeqTrace body (seqBody plus the binary trace) carrying events
// events, and dropped is the ring loss its delta counted. sendBody seals
// the sequence number into buf and queues it, spooling it first when a
// spool is configured.
func (c *Client) sendBody(buf []byte, events, dropped uint64) error {
	c.ringDropped.Add(dropped)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.droppedFrames.Add(1)
		c.droppedEvents.Add(events)
		return nil
	}
	c.nextSeq++
	seq := c.nextSeq
	payload := sealSeq(buf, seq)
	spooled := false
	if c.opts.Spool != nil {
		if err := c.opts.Spool.Append(payload); err != nil {
			c.spoolFaults.Add(1)
		} else {
			spooled = true
		}
	}
	switch {
	case !c.spoolBehind && len(c.queue) < c.opts.Buffer:
		c.queue = append(c.queue, wireFrame{kind: FrameSeqTrace, payload: payload, events: events, seq: seq})
		c.loadedSeq = seq
		c.cond.Signal()
	case spooled:
		// Overflow to disk: the writer reads it back, in order, once the
		// memory queue drains. Memory stays bounded; nothing is lost.
		c.spoolBehind = true
		c.cond.Signal()
	default:
		c.droppedFrames.Add(1)
		c.droppedEvents.Add(events)
	}
	c.mu.Unlock()
	return nil
}

// SendHealth enqueues the producer's merged health counters. Health is
// cumulative latest-wins state, so it is not sequenced or spooled; a
// dropped health frame is counted and superseded by the next one.
func (c *Client) SendHealth(hs []core.ClassHealth) error {
	payload, err := json.Marshal(HealthRows(hs))
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed || len(c.queue) >= c.opts.Buffer {
		c.mu.Unlock()
		c.droppedFrames.Add(1)
		return nil
	}
	c.queue = append(c.queue, wireFrame{kind: FrameHealth, payload: payload})
	c.cond.Signal()
	c.mu.Unlock()
	return nil
}

// Stats returns the client's accounting so far.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		SentFrames:       c.sentFrames.Load(),
		SentEvents:       c.sentEvents.Load(),
		DroppedFrames:    c.droppedFrames.Load(),
		DroppedEvents:    c.droppedEvents.Load(),
		RingDropped:      c.ringDropped.Load(),
		Reconnects:       c.reconnects.Load(),
		SpoolFaults:      c.spoolFaults.Load(),
		ByeLingerExpired: c.lingerExpiry.Load(),
	}
}

// Close drains the buffer (and any spool overflow), resends whatever the
// server has not acked, sends the bye accounting, closes the connection
// and the spool. It returns an error when the bye could not be delivered
// — the server will see the close as a mid-stream disconnect, and a
// configured spool then still holds every sent frame for `tesla-agg
// resend` to close the accounting later.
//
// Close is idempotent and safe to call concurrently: every caller waits
// for the writer to finish and observes the same result.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	<-c.done
	if c.opts.Spool != nil {
		c.opts.Spool.Close()
	}
	if !c.byeSent.Load() {
		return fmt.Errorf("agg: connection lost before final accounting was delivered")
	}
	return nil
}

// noteAck advances the acked watermark and prunes the unacked set.
func (c *Client) noteAck(seq uint64) {
	if seq == 0 {
		return
	}
	c.mu.Lock()
	if seq > c.acked {
		c.acked = seq
		keep := c.unacked[:0]
		for _, f := range c.unacked {
			if f.seq > seq {
				keep = append(keep, f)
			}
		}
		c.unacked = keep
	}
	c.mu.Unlock()
}

// ackReader drains server frames (acks) from one connection until it
// dies. Every live connection must have one: beyond advancing the
// watermark, it keeps the server's ack writes from filling the socket
// and wedging the server worker.
func (c *Client) ackReader(conn net.Conn) {
	fr := trace.NewFrameReader(conn)
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			return
		}
		if kind != FrameAck {
			continue
		}
		var a Ack
		if err := json.Unmarshal(payload, &a); err == nil {
			c.noteAck(a.Seq)
		}
	}
}

// nextFrame blocks until a frame is ready (reloading spool overflow once
// the memory queue drains) or the client is closed and fully drained.
func (c *Client) nextFrame() (wireFrame, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.queue) > 0 {
			f := c.queue[0]
			c.queue = c.queue[1:]
			return f, true
		}
		if c.spoolBehind {
			c.reloadLocked()
			if len(c.queue) > 0 {
				continue
			}
			// Nothing in the spool beyond loadedSeq: caught up.
			c.spoolBehind = false
			continue
		}
		if c.closed {
			return wireFrame{}, false
		}
		c.cond.Wait()
	}
}

// reloadLocked refills the memory queue from the spool with frames
// beyond loadedSeq, up to Buffer. Called with c.mu held; the spool lock
// nests inside c.mu everywhere (Append in SendTrace, Range here).
func (c *Client) reloadLocked() {
	after := c.loadedSeq
	loaded := 0
	c.opts.Spool.Range(func(payload []byte) error {
		if loaded >= c.opts.Buffer {
			return errStopRange
		}
		seq, events, _, err := SeqTraceInfo(payload)
		if err != nil || seq <= after {
			return nil
		}
		c.queue = append(c.queue, wireFrame{
			kind:    FrameSeqTrace,
			payload: append([]byte(nil), payload...),
			events:  events,
			seq:     seq,
		})
		c.loadedSeq = seq
		loaded++
		return nil
	})
}

var errStopRange = fmt.Errorf("agg: stop spool range")

// connState is the writer's connection bundle. readerDone closes when
// the connection's ack reader exits — which, after a bye, means the
// server read our close-side frames and shut its end down.
type connState struct {
	conn       net.Conn
	fw         *trace.FrameWriter
	readerDone chan struct{}
}

func (st *connState) fail() {
	if st.conn != nil {
		st.conn.Close()
		st.conn = nil
	}
}

// sendFrame writes one frame, reconnecting with exponential backoff and
// resending the unacked set first after every reconnect (the server
// deduplicates, so resending a frame that did arrive is harmless — and
// NOT resending a frame whose write error masked a successful delivery
// was the double-count bug). Returns false when retries exhaust.
func (c *Client) sendFrame(st *connState, f wireFrame) bool {
	for attempt := 0; ; attempt++ {
		if st.conn == nil {
			if attempt >= c.opts.retries {
				return false
			}
			time.Sleep(c.opts.backoff << attempt)
			conn, ack, err := dialHandshake(c.addr, Hello{
				Proto: ProtoVersion, Codec: trace.Version,
				Tool: c.opts.Tool, Process: c.opts.Process,
			}, c.opts.wrapConn)
			if err != nil {
				continue
			}
			c.reconnects.Add(1)
			st.conn, st.fw = conn, trace.NewFrameWriter(conn)
			c.noteAck(ack.Ack)
			c.startAckReader(st, conn)
			if !c.resendUnacked(st) {
				continue
			}
		}
		if err := st.fw.Frame(f.kind, f.payload); err == nil {
			return true
		}
		st.fail()
	}
}

// resendUnacked replays every sent-but-unacked frame on a fresh
// connection, oldest first, before anything newer is written.
func (c *Client) resendUnacked(st *connState) bool {
	c.mu.Lock()
	pending := make([]wireFrame, 0, len(c.unacked))
	for _, f := range c.unacked {
		if f.seq > c.acked {
			pending = append(pending, f)
		}
	}
	c.mu.Unlock()
	for _, f := range pending {
		if err := st.fw.Frame(f.kind, f.payload); err != nil {
			st.fail()
			return false
		}
	}
	return true
}

// retainUnacked records a successfully written sequenced frame for
// resend-until-acked.
func (c *Client) retainUnacked(f wireFrame) {
	if f.seq == 0 {
		return
	}
	c.mu.Lock()
	if f.seq > c.acked {
		c.unacked = append(c.unacked, f)
	}
	c.mu.Unlock()
}

// startAckReader runs an ack reader for a fresh connection and wires its
// exit into the connState.
func (c *Client) startAckReader(st *connState, conn net.Conn) {
	done := make(chan struct{})
	st.readerDone = done
	go func() {
		defer close(done)
		c.ackReader(conn)
	}()
}

// writer owns the connection: it drains the frame queue, reconnecting
// with backoff on failures, and finishes with the bye frame.
func (c *Client) writer(conn net.Conn) {
	defer close(c.done)
	st := &connState{conn: conn, fw: trace.NewFrameWriter(conn)}
	defer st.fail()
	c.startAckReader(st, conn)

	for {
		f, ok := c.nextFrame()
		if !ok {
			break
		}
		if c.sendFrame(st, f) {
			c.sentFrames.Add(1)
			c.sentEvents.Add(f.events)
			c.retainUnacked(f)
			continue
		}
		c.droppedFrames.Add(1)
		c.droppedEvents.Add(f.events)
		if c.resumed {
			return
		}
	}
	// Final accounting. Sent/dropped are complete here: the queue and
	// spool backlog are drained and only this goroutine updates the sent
	// side. sendFrame resends the unacked set after any reconnect, so a
	// delivered bye certifies every counted-sent frame arrived (in-order
	// delivery), closing the invariant for clean producers.
	stats := c.Stats()
	payload, _ := json.Marshal(Bye{
		SentFrames:          stats.SentFrames,
		SentEvents:          stats.SentEvents,
		ClientDroppedFrames: stats.DroppedFrames,
		ClientDroppedEvents: stats.DroppedEvents,
		RingDropped:         stats.RingDropped,
	})
	if c.sendFrame(st, wireFrame{kind: FrameBye, payload: payload}) {
		c.byeSent.Store(true)
		// Linger until the server closes its end (our ack reader sees
		// EOF): it may still be draining its apply queue, and closing
		// now would RST away the bye — and acks in flight — before the
		// server reads them. The server closes promptly after the bye.
		if st.readerDone != nil {
			select {
			case <-st.readerDone:
			case <-time.After(byeLinger):
				c.lingerExpiry.Add(1)
			}
		}
	}
}
